#include "dh.hh"

#include "crypto/sha256.hh"

namespace ccai::crypto
{

const DhGroup &
DhGroup::standard()
{
    // p = 2^256 - 189, the largest 256-bit prime; g = 2 generates a
    // large subgroup. Fixed for reproducibility.
    static const DhGroup group = [] {
        DhGroup g;
        g.p = BigInt::fromHexString(
            "ffffffffffffffffffffffffffffffff"
            "ffffffffffffffffffffffffffffff43");
        g.g = BigInt(2);
        g.order = BigInt::fromHexString(
            "ffffffffffffffffffffffffffffffff"
            "ffffffffffffffffffffffffffffff42");
        return g;
    }();
    return group;
}

KeyPair
generateKeyPair(sim::Rng &rng, const DhGroup &group)
{
    KeyPair kp;
    Bytes priv_bytes = rng.bytes(31); // < p by construction
    kp.priv = BigInt::fromBytes(priv_bytes);
    if (kp.priv.isZero())
        kp.priv = BigInt(3);
    kp.pub = group.g.powMod(kp.priv, group.p);
    return kp;
}

Bytes
computeSharedSecret(const BigInt &priv, const BigInt &peer_pub,
                    const DhGroup &group)
{
    BigInt shared = peer_pub.powMod(priv, group.p);
    // Hash the raw group element so the secret is uniform.
    return Sha256::digest(shared.toBytes(32));
}

Bytes
Signature::serialize() const
{
    Bytes out = r.toBytes(32);
    Bytes s_bytes = s.toBytes(32);
    out.insert(out.end(), s_bytes.begin(), s_bytes.end());
    return out;
}

namespace
{

/** Challenge e = H(r_bytes || message) reduced mod (p - 1). */
BigInt
challenge(const BigInt &r, const Bytes &message, const DhGroup &group)
{
    Bytes input = r.toBytes(32);
    input.insert(input.end(), message.begin(), message.end());
    return BigInt::fromBytes(Sha256::digest(input)).mod(group.order);
}

} // namespace

Signature
sign(const BigInt &priv, const Bytes &message, sim::Rng &rng,
     const DhGroup &group)
{
    BigInt k = BigInt::fromBytes(rng.bytes(31));
    if (k.isZero())
        k = BigInt(5);

    Signature sig;
    sig.r = group.g.powMod(k, group.p);
    BigInt e = challenge(sig.r, message, group);
    // s = k + x * e mod (p-1)
    sig.s = k.addMod(priv.mulMod(e, group.order), group.order);
    return sig;
}

bool
verify(const BigInt &pub, const Bytes &message, const Signature &sig,
       const DhGroup &group)
{
    // Check g^s == r * pub^e (mod p).
    BigInt e = challenge(sig.r, message, group);
    BigInt lhs = group.g.powMod(sig.s, group.p);
    BigInt rhs = sig.r.mulMod(pub.powMod(e, group.p), group.p);
    return lhs == rhs;
}

} // namespace ccai::crypto
