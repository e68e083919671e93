#include "hrot.hh"

#include "common/logging.hh"

namespace ccai::trust
{

Bytes
Certificate::tbs() const
{
    Bytes out(subject.begin(), subject.end());
    Bytes key = publicKey.toBytes(32);
    out.insert(out.end(), key.begin(), key.end());
    return out;
}

Bytes
Quote::reportBytes() const
{
    Bytes out = nonce;
    for (size_t idx : pcrSelection)
        out.push_back(static_cast<std::uint8_t>(idx));
    for (const Bytes &v : pcrValues)
        out.insert(out.end(), v.begin(), v.end());
    Bytes sig = pcrSignature.serialize();
    out.insert(out.end(), sig.begin(), sig.end());
    return out;
}

RootCa::RootCa(sim::Rng &rng) : keys_(crypto::generateKeyPair(rng)) {}

Certificate
RootCa::issue(const std::string &subject, const crypto::BigInt &publicKey,
              sim::Rng &rng)
{
    Certificate cert;
    cert.subject = subject;
    cert.publicKey = publicKey;
    cert.issuerSignature = crypto::sign(keys_.priv, cert.tbs(), rng);
    return cert;
}

bool
RootCa::verify(const Certificate &cert) const
{
    return crypto::verify(keys_.pub, cert.tbs(), cert.issuerSignature);
}

HrotBlade::HrotBlade(const std::string &name, RootCa &ca, sim::Rng &rng)
    : name_(name), ek_(crypto::generateKeyPair(rng)),
      ekCert_(ca.issue(name + ".ek", ek_.pub, rng))
{
}

void
HrotBlade::boot(sim::Rng &rng)
{
    // Fresh attestation key at each boot, certified by the EK: the
    // verifier checks EK (vendor CA) -> AK (EK) -> quote (AK).
    ak_ = crypto::generateKeyPair(rng);
    akCert_.subject = name_ + ".ak";
    akCert_.publicKey = ak_.pub;
    akCert_.issuerSignature = crypto::sign(ek_.priv, akCert_.tbs(), rng);
    booted_ = true;
}

const Certificate &
HrotBlade::akCertificate() const
{
    if (!booted_)
        fatal("HRoT %s: AK requested before boot", name_.c_str());
    return akCert_;
}

const crypto::BigInt &
HrotBlade::akPublic() const
{
    if (!booted_)
        fatal("HRoT %s: AK requested before boot", name_.c_str());
    return ak_.pub;
}

Quote
HrotBlade::quote(const Bytes &nonce,
                 const std::vector<size_t> &pcrSelection,
                 sim::Rng &rng) const
{
    if (!booted_)
        fatal("HRoT %s: quote before boot", name_.c_str());

    Quote q;
    q.nonce = nonce;
    q.pcrSelection = pcrSelection;
    q.pcrValues = pcrs_.select(pcrSelection);

    // S(PCRs): sign the composite digest of the selected registers.
    Bytes composite = pcrs_.compositeDigest(pcrSelection);
    q.pcrSignature = crypto::sign(ak_.priv, composite, rng);

    // S(r): sign the whole report (nonce + selection + values +
    // S(PCRs)) so the verifier detects any substitution.
    q.reportSignature = crypto::sign(ak_.priv, q.reportBytes(), rng);
    return q;
}

bool
HrotBlade::verifyQuote(const Quote &q, const crypto::BigInt &akPub)
{
    // The quote comes from the platform: one value per selected PCR.
    if (q.pcrValues.size() != q.pcrSelection.size())
        return false;
    // Recompute the composite from the reported values.
    crypto::Sha256 h;
    for (size_t i = 0; i < q.pcrSelection.size(); ++i) {
        std::uint8_t idx = static_cast<std::uint8_t>(q.pcrSelection[i]);
        h.update(&idx, 1);
        h.update(q.pcrValues[i]);
    }
    Bytes composite = h.finalize();
    if (!crypto::verify(akPub, composite, q.pcrSignature))
        return false;
    return crypto::verify(akPub, q.reportBytes(), q.reportSignature);
}

crypto::KeyPair
HrotBlade::makeSessionKeys(sim::Rng &rng) const
{
    return crypto::generateKeyPair(rng);
}

} // namespace ccai::trust
