/**
 * @file
 * Remote attestation protocol (paper Figure 6): a four-step exchange
 * between the user's verifier and the ccAI platform.
 *
 *  1. Diffie-Hellman key exchange establishes a SessionKey.
 *  2. The verifier fetches AK/EK certificates and validates them
 *     against the corporate Root CA.
 *  3. The verifier sends a challenge (KeyID for xPU selection, PCR
 *     selection, random nonce), which the TVM forwards to both the
 *     CPU-side HRoT and the HRoT-Blade.
 *  4. Each HRoT signs the selected PCRs with its AK; the verifier
 *     validates nonce, signatures, and PCR values against its
 *     reference database.
 */

#ifndef CCAI_TRUST_ATTESTATION_HH
#define CCAI_TRUST_ATTESTATION_HH

#include <optional>
#include <string>
#include <vector>

#include "crypto/gcm.hh"
#include "trust/hrot.hh"

namespace ccai::trust
{

/** The challenge of step 3 (encrypted under the SessionKey). */
struct Challenge
{
    std::uint32_t keyId = 0; ///< which xPU set to attest
    std::vector<size_t> pcrSelection;
    Bytes nonce;
};

/** Everything the platform returns in step 4. */
struct AttestationReport
{
    Quote cpuQuote;
    Quote bladeQuote;
};

/**
 * Golden PCR values of one release, one bank per attested HRoT. They
 * come from the release's measurements (the image digests, extended
 * in boot order), never from the registers under attestation; a
 * register the release never extends keeps its reset value.
 */
struct PcrGoldens
{
    PcrBank cpuHrot;
    PcrBank blade;
};

/** Outcome of a verification run, with the reason for any failure. */
struct VerifyResult
{
    bool ok = false;
    std::string reason;
};

/**
 * Platform side: owns the two HRoTs and answers challenges.
 */
class AttestationResponder
{
  public:
    AttestationResponder(HrotBlade &cpuHrot, HrotBlade &blade,
                         sim::Rng &rng);

    /** Step 1: platform half of the DH exchange. */
    const crypto::BigInt &dhPublic() const { return dh_.pub; }
    Bytes sessionSecret(const crypto::BigInt &peerPub) const;

    /** Step 2: certificates for the verifier. */
    const Certificate &cpuAkCert() const;
    const Certificate &bladeAkCert() const;
    const Certificate &cpuEkCert() const;
    const Certificate &bladeEkCert() const;

    /** Steps 3-4: answer a challenge with quotes from both HRoTs. */
    AttestationReport respond(const Challenge &challenge);

  private:
    HrotBlade &cpuHrot_;
    HrotBlade &blade_;
    sim::Rng &rng_;
    crypto::KeyPair dh_;
};

/**
 * User side: drives the protocol and checks every signature and every
 * selected PCR value against its HRoT's golden bank (all reset values
 * until expectGoldens()).
 */
class AttestationVerifier
{
  public:
    AttestationVerifier(const RootCa &ca, sim::Rng &rng);

    /** Step 1: verifier half of the DH exchange. */
    const crypto::BigInt &dhPublic() const { return dh_.pub; }
    Bytes sessionSecret(const crypto::BigInt &peerPub) const;

    /** Set the PCR values the verifier expects from each HRoT. */
    void expectGoldens(PcrGoldens goldens) { goldens_ = std::move(goldens); }

    /** Build a fresh challenge with a random nonce. */
    Challenge makeChallenge(std::uint32_t keyId,
                            const std::vector<size_t> &pcrSelection);

    /**
     * Full verification of a report: certificate chains, quote
     * signatures, nonce freshness, and expected PCR values.
     */
    VerifyResult verifyReport(const AttestationReport &report,
                              const Challenge &challenge,
                              const AttestationResponder &responder);

  private:
    VerifyResult verifyQuoteChain(const Quote &quote,
                                  const Challenge &challenge,
                                  const Certificate &ekCert,
                                  const Certificate &akCert,
                                  const PcrBank &golden,
                                  const std::string &who);

    const RootCa &ca_;
    sim::Rng &rng_;
    crypto::KeyPair dh_;
    PcrGoldens goldens_;
};

} // namespace ccai::trust

#endif // CCAI_TRUST_ATTESTATION_HH
