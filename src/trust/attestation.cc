#include "attestation.hh"

#include "common/bytes_util.hh"
#include "common/logging.hh"

namespace ccai::trust
{

AttestationResponder::AttestationResponder(HrotBlade &cpuHrot,
                                           HrotBlade &blade,
                                           sim::Rng &rng)
    : cpuHrot_(cpuHrot), blade_(blade), rng_(rng),
      dh_(crypto::generateKeyPair(rng))
{
}

Bytes
AttestationResponder::sessionSecret(const crypto::BigInt &peerPub) const
{
    return crypto::computeSharedSecret(dh_.priv, peerPub);
}

const Certificate &
AttestationResponder::cpuAkCert() const
{
    return cpuHrot_.akCertificate();
}

const Certificate &
AttestationResponder::bladeAkCert() const
{
    return blade_.akCertificate();
}

const Certificate &
AttestationResponder::cpuEkCert() const
{
    return cpuHrot_.ekCertificate();
}

const Certificate &
AttestationResponder::bladeEkCert() const
{
    return blade_.ekCertificate();
}

AttestationReport
AttestationResponder::respond(const Challenge &challenge)
{
    AttestationReport report;
    report.cpuQuote =
        cpuHrot_.quote(challenge.nonce, challenge.pcrSelection, rng_);
    report.bladeQuote =
        blade_.quote(challenge.nonce, challenge.pcrSelection, rng_);
    return report;
}

AttestationVerifier::AttestationVerifier(const RootCa &ca, sim::Rng &rng)
    : ca_(ca), rng_(rng), dh_(crypto::generateKeyPair(rng))
{
}

Bytes
AttestationVerifier::sessionSecret(const crypto::BigInt &peerPub) const
{
    return crypto::computeSharedSecret(dh_.priv, peerPub);
}

Challenge
AttestationVerifier::makeChallenge(
    std::uint32_t keyId, const std::vector<size_t> &pcrSelection)
{
    Challenge c;
    c.keyId = keyId;
    c.pcrSelection = pcrSelection;
    c.nonce = rng_.bytes(32);
    return c;
}

VerifyResult
AttestationVerifier::verifyQuoteChain(const Quote &quote,
                                      const Challenge &challenge,
                                      const Certificate &ekCert,
                                      const Certificate &akCert,
                                      const PcrBank &golden,
                                      const std::string &who)
{
    VerifyResult r;

    // EK certificate chains to the corporate Root CA.
    if (!ca_.verify(ekCert)) {
        r.reason = who + ": EK certificate not signed by Root CA";
        return r;
    }
    // AK certificate is signed by the EK.
    if (!crypto::verify(ekCert.publicKey, akCert.tbs(),
                        akCert.issuerSignature)) {
        r.reason = who + ": AK certificate not signed by EK";
        return r;
    }
    // Quote signatures verify under the AK.
    if (!HrotBlade::verifyQuote(quote, akCert.publicKey)) {
        r.reason = who + ": quote signature invalid";
        return r;
    }
    // Nonce freshness (replay defense).
    if (quote.nonce != challenge.nonce) {
        r.reason = who + ": nonce mismatch (replayed report?)";
        return r;
    }
    if (quote.pcrSelection != challenge.pcrSelection) {
        r.reason = who + ": PCR selection mismatch";
        return r;
    }
    // Every selected PCR holds this release's golden value.
    for (size_t i = 0; i < quote.pcrSelection.size(); ++i) {
        if (golden.value(quote.pcrSelection[i]) != quote.pcrValues[i]) {
            r.reason = who + ": PCR " +
                       std::to_string(quote.pcrSelection[i]) +
                       " does not match golden value";
            return r;
        }
    }

    r.ok = true;
    return r;
}

VerifyResult
AttestationVerifier::verifyReport(const AttestationReport &report,
                                  const Challenge &challenge,
                                  const AttestationResponder &responder)
{
    VerifyResult r = verifyQuoteChain(
        report.cpuQuote, challenge, responder.cpuEkCert(),
        responder.cpuAkCert(), goldens_.cpuHrot, "cpu-hrot");
    if (!r.ok)
        return r;
    return verifyQuoteChain(report.bladeQuote, challenge,
                            responder.bladeEkCert(),
                            responder.bladeAkCert(), goldens_.blade,
                            "hrot-blade");
}

} // namespace ccai::trust
