/**
 * @file
 * Finite-field Diffie-Hellman key exchange and Schnorr-style
 * signatures over the same group. These back the remote attestation
 * protocol in the trust module (Figure 6 of the paper).
 *
 * Simulation-grade: the group prime p = 2^256 - 189 lets every
 * reduction be BigInt's fixed 4x64-bit fold, so a modexp costs tens
 * of microseconds; real deployments would use standard 2048-bit MODP
 * groups or ECDH.
 */

#ifndef CCAI_CRYPTO_DH_HH
#define CCAI_CRYPTO_DH_HH

#include <string>

#include "crypto/bigint.hh"
#include "sim/rng.hh"

namespace ccai::crypto
{

/** Group parameters: prime modulus, generator and exponent order. */
struct DhGroup
{
    BigInt p;     ///< prime modulus
    BigInt g;     ///< generator
    BigInt order; ///< p - 1: Schnorr's s and challenges reduce mod it

    /** The fixed group used throughout the simulation. */
    static const DhGroup &standard();
};

/** A DH/Schnorr key pair. */
struct KeyPair
{
    BigInt priv; ///< x
    BigInt pub;  ///< g^x mod p
};

/** Generate a key pair using @p rng for the private exponent. */
KeyPair generateKeyPair(sim::Rng &rng, const DhGroup &group =
                                           DhGroup::standard());

/** Compute the shared secret peer_pub^priv mod p. */
Bytes computeSharedSecret(const BigInt &priv, const BigInt &peer_pub,
                          const DhGroup &group = DhGroup::standard());

/** Schnorr-style signature (r, s). */
struct Signature
{
    BigInt r;
    BigInt s;

    /** r || s, 32 big-endian bytes each. */
    Bytes serialize() const;
};

/** Sign @p message with private key @p priv. */
Signature sign(const BigInt &priv, const Bytes &message, sim::Rng &rng,
               const DhGroup &group = DhGroup::standard());

/** Verify a signature against public key @p pub. */
bool verify(const BigInt &pub, const Bytes &message, const Signature &sig,
            const DhGroup &group = DhGroup::standard());

} // namespace ccai::crypto

#endif // CCAI_CRYPTO_DH_HH
