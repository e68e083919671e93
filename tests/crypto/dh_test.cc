/**
 * @file
 * Diffie-Hellman key exchange and Schnorr signature tests: shared
 * secrets agree, signatures verify, and every relevant forgery
 * attempt fails.
 */

#include <gtest/gtest.h>

#include "common/bytes_util.hh"
#include "crypto/dh.hh"

using namespace ccai;
using namespace ccai::crypto;

TEST(Dh, SharedSecretAgreement)
{
    sim::Rng rng(21);
    KeyPair alice = generateKeyPair(rng);
    KeyPair bob = generateKeyPair(rng);
    Bytes s1 = computeSharedSecret(alice.priv, bob.pub);
    Bytes s2 = computeSharedSecret(bob.priv, alice.pub);
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(s1.size(), 32u);
}

TEST(Dh, DistinctPairsDistinctSecrets)
{
    sim::Rng rng(22);
    KeyPair alice = generateKeyPair(rng);
    KeyPair bob = generateKeyPair(rng);
    KeyPair eve = generateKeyPair(rng);
    EXPECT_NE(computeSharedSecret(alice.priv, bob.pub),
              computeSharedSecret(alice.priv, eve.pub));
}

// Every key, secret and signature the platform derives depends on the
// RNG draws and on the modular arithmetic. These values were pinned
// when BigInt was a bit-serial vector of 32-bit limbs; the fixed
// 4x64-bit fold must reproduce them bit for bit.
TEST(Dh, PinnedKeyPairAndSecret)
{
    sim::Rng rng(2025);
    KeyPair alice = generateKeyPair(rng);
    KeyPair bob = generateKeyPair(rng);
    EXPECT_EQ(toHex(alice.priv.toBytes(32)),
              "003d79217037d67f9dd6baff4114e4ca"
              "abbdf746bfd0573c756bb4c212fb1702");
    EXPECT_EQ(toHex(alice.pub.toBytes(32)),
              "e41b2f399500dfdbd7112a7e106b947a"
              "d468c49ef5c8db5f6823ae30a58f040d");
    EXPECT_EQ(toHex(bob.pub.toBytes(32)),
              "dd938bf9073a0c155243147c4be5710c"
              "09c3d1156fc6108c32c404961eeb3f97");
    EXPECT_EQ(toHex(computeSharedSecret(alice.priv, bob.pub)),
              "b709165c3ab65ec8e387807ef1621eb8"
              "a33705d9c7c1fe7b5827977b070c0b46");
}

TEST(Signature, PinnedSignature)
{
    sim::Rng rng(2025);
    KeyPair alice = generateKeyPair(rng);
    generateKeyPair(rng); // the pinned pair's second key
    Bytes msg = {'c', 'c', 'A', 'I'};
    Signature sig = sign(alice.priv, msg, rng);
    EXPECT_EQ(toHex(sig.r.toBytes(32)),
              "6220bbc7ac8f3b66b4bbd3dee1e8e94a"
              "7e8d54ad207603d046dd221e4889b5eb");
    EXPECT_EQ(toHex(sig.s.toBytes(32)),
              "e71ca3b7a99e60bd6dff8e44e82b12d4"
              "87edbf8a4ba5a7661f95313b11a79692");
    EXPECT_TRUE(verify(alice.pub, msg, sig));
}

TEST(Dh, PublicKeyInGroup)
{
    sim::Rng rng(23);
    const DhGroup &g = DhGroup::standard();
    for (int i = 0; i < 10; ++i) {
        KeyPair kp = generateKeyPair(rng);
        EXPECT_TRUE(kp.pub < g.p);
        EXPECT_FALSE(kp.pub.isZero());
    }
}

TEST(Signature, SignVerify)
{
    sim::Rng rng(24);
    KeyPair kp = generateKeyPair(rng);
    Bytes msg = {'h', 'e', 'l', 'l', 'o'};
    Signature sig = sign(kp.priv, msg, rng);
    EXPECT_TRUE(verify(kp.pub, msg, sig));
}

TEST(Signature, WrongMessageFails)
{
    sim::Rng rng(25);
    KeyPair kp = generateKeyPair(rng);
    Signature sig = sign(kp.priv, {1, 2, 3}, rng);
    EXPECT_FALSE(verify(kp.pub, {1, 2, 4}, sig));
}

TEST(Signature, WrongKeyFails)
{
    sim::Rng rng(26);
    KeyPair kp = generateKeyPair(rng);
    KeyPair other = generateKeyPair(rng);
    Bytes msg = {9, 9, 9};
    Signature sig = sign(kp.priv, msg, rng);
    EXPECT_FALSE(verify(other.pub, msg, sig));
}

TEST(Signature, TamperedSignatureFails)
{
    sim::Rng rng(27);
    KeyPair kp = generateKeyPair(rng);
    Bytes msg = {5, 5, 5};
    Signature sig = sign(kp.priv, msg, rng);
    Signature bad = sig;
    bad.s = bad.s.addMod(BigInt(1), DhGroup::standard().order);
    EXPECT_FALSE(verify(kp.pub, msg, bad));
}

TEST(Signature, SerializeRoundTrip)
{
    sim::Rng rng(28);
    KeyPair kp = generateKeyPair(rng);
    Bytes msg = {7, 7};
    Signature sig = sign(kp.priv, msg, rng);
    Bytes wire = sig.serialize();
    EXPECT_EQ(wire.size(), 64u);
    Signature back;
    back.r = BigInt::fromBytes(Bytes(wire.begin(), wire.begin() + 32));
    back.s = BigInt::fromBytes(Bytes(wire.begin() + 32, wire.end()));
    EXPECT_EQ(back.r, sig.r);
    EXPECT_EQ(back.s, sig.s);
    EXPECT_TRUE(verify(kp.pub, msg, back));
}

TEST(Signature, FreshRandomnessPerSignature)
{
    sim::Rng rng(29);
    KeyPair kp = generateKeyPair(rng);
    Bytes msg = {1};
    Signature s1 = sign(kp.priv, msg, rng);
    Signature s2 = sign(kp.priv, msg, rng);
    EXPECT_NE(s1.r, s2.r); // nonce reuse would leak the key
    EXPECT_TRUE(verify(kp.pub, msg, s1));
    EXPECT_TRUE(verify(kp.pub, msg, s2));
}
