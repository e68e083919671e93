/**
 * @file
 * BigInt tests: byte round trips, ordering, and known answers for the
 * modular operations modulo the DH prime p = 2^256 - 189 and its
 * exponent order p - 1. The vectors were computed with python3's
 * built-in pow() and cover 0, 1, p - 2, p - 1 and inputs in
 * [p, 2^256).
 */

#include <gtest/gtest.h>

#include "crypto/bigint.hh"
#include "crypto/dh.hh"
#include "sim/rng.hh"

using namespace ccai;
using crypto::BigInt;

namespace
{

/** One known answer, all hex: op(a, b) mod m = want. */
struct Vector
{
    const char *a;
    const char *b;
    const char *want;
};

BigInt
hex(const char *s)
{
    return BigInt::fromHexString(s);
}

const BigInt &
groupP()
{
    return crypto::DhGroup::standard().p;
}

const BigInt &
groupOrder()
{
    return crypto::DhGroup::standard().order;
}

/** pow(a, b, p) */
const Vector kPowModP[] = {
    {"0", "0", "1"},
    {"0", "5", "0"},
    {"1",
     "331241a982f11ec01ee57012853d452fe539a78bc8eff3460b12ae6ead581e57",
     "1"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff41",
     "2",
     "4"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff42",
     "3",
     "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff42"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff43",
     "7",
     "0"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff44",
     "9851e4d525f45a8295af4c654a13d22e877994afff2f650458e00e8c64beb012",
     "1"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
     "d5a262c84495ce11f7cf5a6c53ce530e6970159142ac030c1b901e7842d60baa",
     "38c99b16ba6d20b309002efc3f9b42ba5874ecb738e33e948c2feb7e051ceabe"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff5e",
     "339e15b19e1b43fd91b9b6a205da31934fa1f5f5e5aefe755353f361c5f6ffa8",
     "5f6679b2d966c93b724484b2367080890d6d3c9ef7dac359a026b37f425b7186"},
    {"6378c97774a2a8ab8add849b1d27ffa333da7327eb9f5bf1121f24dee10fadcb",
     "196f8d86044d2cc96a1895051936bcaecd954f4612de1bfbbbc4ba50ddb860ca",
     "a8622eab487aa3c71f0c1b91cc41582c46e2f40de99603c90c54d549ab6f8c6b"},
    {"a885a5b270b796dd65646802da50dff4c17323a56c558429ba5ddf63943fb835",
     "cabe16a72894b7efd5745df48096cb87ea367564921bcb244c8e9782fd3d028c",
     "15eccb190c9c75849e48caf59679c3cad5c639d91b0f024f8aef9051dde23006"},
    {"bb3b89fe939bfedb8b95a17fc65244fb3b9b7ca368096042f433c645a31733c3",
     "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff41",
     "b940cefef1e26364d9ff52eace30a2f76e496e2542b6efa8b68b718a6f56cfb4"},
};

/** a * b % p */
const Vector kMulModP[] = {
    {"0",
     "a05654cc2278b5a32377965c310705f463e965b6351357e3cd2d6a7e1b936545",
     "0"},
    {"1",
     "745a1a5ef4fc29f001c7cbc1754408ebb49276b08c1650ee1ac9cf1b7e4917c1",
     "745a1a5ef4fc29f001c7cbc1754408ebb49276b08c1650ee1ac9cf1b7e4917c1"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff42",
     "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff42",
     "1"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff41",
     "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff42",
     "2"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
     "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
     "8a10"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff43",
     "800458c3d3182d477aedf4ae852a2f461eab21549819159b7ad13059e7e9af60",
     "0"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffc1",
     "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffa1",
     "2e44"},
    {"3eb0b04700bbe183e3fa15722ef9d226ddb6c65a8abf685ee57228006da513ed",
     "b48a037ead018df21d18b3ab73a943b560699eda774a4e0206a039f5176e956a",
     "1c1eba1180a425f0d6b23a4dc069c9f128004f2e76f89518543af95e683746f9"},
    {"6746c0287301ecfd48a1145179c268eb20ddb9f0ef76c6c6434fe2f3a705cf6d",
     "ad681fe24eed88564d19f715704f85d67606b5c12bc9a4b7bc4325fa4b099e64",
     "f171f986df8016e933c83c221cce762c0fa7fcc6143c39b48cfef30af8af9374"},
};

/** a * b % (p - 1) */
const Vector kMulModOrder[] = {
    {"0",
     "c086261ef70b0757affe0a274faff7fa358e875513c89d3e0b9a87aec3f7f1d6",
     "0"},
    {"1",
     "a80d1cff7383e3f3817bdf3477fde3e911040afe7685476319ef61ae6bac8d9f",
     "a80d1cff7383e3f3817bdf3477fde3e911040afe7685476319ef61ae6bac8d9f"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff41",
     "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff41",
     "1"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff42",
     "15c97233134bd5bf465948e1a621f4276fd08ec32cd8455c042028d5f4dd239a",
     "0"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
     "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
     "8b89"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff63",
     "33e9e2701cba9d81d4e68d12778fee49e211f91c492cd9706e1bbdcf2bcfc628",
     "b1263073b40e4dbc71b82f61698db78624511ca56ec8077e319377b4a5c88f9c"},
    {"6dc8dfe41166e24ccf91e67aaf191372ff850f5ce0f6133f783c363c9eced413",
     "9eeb534b627ba2d5e0cd4b49023eba122737f9f0a24527bbf22f6eada603d271",
     "fb999f052595e34ac95e6a5bac11aee1c7502560b213a98a78ed5447f835dc49"},
    {"8bb0d81891cccfab0a104908edcfe816a313f6caf33c78e44a2e7b0ca70d70ce",
     "514385eb8257303743a7f9fc35eba05a40c48c33f55e35865b49259396bef35a",
     "9a79ebaa66d20825da4423c51eb0eb4a3447350f3daba2694074472215aa408a"},
};

/** (a + b) % (p - 1) */
const Vector kAddModOrder[] = {
    {"0", "0", "0"},
    {"1",
     "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff41",
     "0"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff41",
     "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff41",
     "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff40"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff42",
     "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff42",
     "0"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
     "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
     "17a"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff52",
     "1",
     "11"},
    {"327406e7106cfe3135e8cfb4db011205a75550da47e9e4f2c64bf1110649af9e",
     "52caa74afce3cea122c987f280beb5dcc06f8996774a6e5e8612c3654b3afceb",
     "853eae320d50ccd258b257a75bbfc7e267c4da70bf3453514c5eb4765184ac89"},
    {"b99bfcd9b7778ba8e26d26c28fe788ba42ddf2ebcdb0edee83440cb9cddcd68c",
     "491467d4875c266dae681589beff6b07a41710324e581b59f4953a66bce7f897",
     "2b064ae3ed3b21690d53c4c4ee6f3c1e6f5031e1c09094877d947208ac4cfe1"},
};

} // namespace

TEST(BigInt, SmallValueRoundTrip)
{
    EXPECT_EQ(BigInt(0).toHexString(), "00");
    EXPECT_EQ(BigInt(255).toHexString(), "ff");
    EXPECT_EQ(BigInt(0x1234567890abcdefull).toHexString(),
              "1234567890abcdef");
}

TEST(BigInt, FromBytesBigEndian)
{
    BigInt v = BigInt::fromBytes({0x01, 0x00});
    EXPECT_EQ(v, BigInt(256));
    // Leading zeros are not significant, however many there are.
    Bytes padded(40, 0);
    padded.back() = 7;
    EXPECT_EQ(BigInt::fromBytes(padded), BigInt(7));
    EXPECT_EQ(BigInt::fromBytes(Bytes(32, 0xff)).bitLength(), 256u);
}

TEST(BigInt, FromBytesRejectsMoreThan32SignificantBytes)
{
    Bytes wide(33, 0);
    wide[0] = 1;
    EXPECT_DEATH(BigInt::fromBytes(wide), "33 significant bytes");
}

TEST(BigInt, ToBytesPadding)
{
    Bytes out = BigInt(0x1234).toBytes(4);
    EXPECT_EQ(out, (Bytes{0x00, 0x00, 0x12, 0x34}));
}

TEST(BigInt, Comparisons)
{
    EXPECT_LT(BigInt(5), BigInt(7));
    EXPECT_GT(BigInt(1ull << 40), BigInt(123));
    EXPECT_EQ(BigInt(42), BigInt(42));
    EXPECT_LE(BigInt(42), BigInt(42));
    // The most significant limb decides.
    EXPECT_GT(hex("10000000000000000000000000000000000000000"),
              BigInt(~0ull));
    EXPECT_LT(groupOrder(), groupP());
}

TEST(BigInt, MulModDistributes)
{
    sim::Rng rng(4);
    for (const BigInt *m : {&groupP(), &groupOrder()}) {
        for (int i = 0; i < 20; ++i) {
            BigInt a = BigInt::fromBytes(rng.bytes(32));
            BigInt b = BigInt::fromBytes(rng.bytes(32));
            BigInt c = BigInt::fromBytes(rng.bytes(32));
            EXPECT_EQ(a.mulMod(b, *m), b.mulMod(a, *m));
            EXPECT_EQ(a.mulMod(b.addMod(c, *m), *m),
                      a.mulMod(b, *m).addMod(a.mulMod(c, *m), *m));
        }
    }
}

TEST(BigInt, PowModKnownAnswers)
{
    for (const Vector &v : kPowModP)
        EXPECT_EQ(hex(v.a).powMod(hex(v.b), groupP()).toHexString(),
                  hex(v.want).toHexString())
            << v.a << " ^ " << v.b;
}

TEST(BigInt, MulModKnownAnswers)
{
    for (const Vector &v : kMulModP)
        EXPECT_EQ(hex(v.a).mulMod(hex(v.b), groupP()).toHexString(),
                  hex(v.want).toHexString())
            << v.a << " * " << v.b << " mod p";
    for (const Vector &v : kMulModOrder)
        EXPECT_EQ(hex(v.a).mulMod(hex(v.b), groupOrder()).toHexString(),
                  hex(v.want).toHexString())
            << v.a << " * " << v.b << " mod p - 1";
}

TEST(BigInt, AddModKnownAnswers)
{
    for (const Vector &v : kAddModOrder)
        EXPECT_EQ(hex(v.a).addMod(hex(v.b), groupOrder()).toHexString(),
                  hex(v.want).toHexString())
            << v.a << " + " << v.b << " mod p - 1";
}

TEST(BigInt, PowModLargePrimeFermat)
{
    // Fermat's little theorem on the DH group prime.
    const BigInt &p = groupP();
    EXPECT_EQ(BigInt(2).powMod(groupOrder(), p), BigInt(1));
    EXPECT_EQ(BigInt(12345).powMod(groupOrder(), p), BigInt(1));
    sim::Rng rng(5);
    for (int i = 0; i < 4; ++i) {
        BigInt a = BigInt::fromBytes(rng.bytes(32));
        if (a.mod(p).isZero())
            continue;
        EXPECT_EQ(a.powMod(groupOrder(), p), BigInt(1));
    }
}

TEST(BigInt, BitLength)
{
    EXPECT_EQ(BigInt(0).bitLength(), 0u);
    EXPECT_EQ(BigInt(1).bitLength(), 1u);
    EXPECT_EQ(BigInt(255).bitLength(), 8u);
    EXPECT_EQ(BigInt(256).bitLength(), 9u);
    EXPECT_EQ(BigInt(1ull << 63).bitLength(), 64u);
    EXPECT_EQ(hex("10000000000000000").bitLength(), 65u);
    EXPECT_EQ(groupP().bitLength(), 256u);
}

TEST(BigInt, HexStringRoundTrip)
{
    std::string hex = "deadbeefcafebabe0123456789abcdef";
    EXPECT_EQ(BigInt::fromHexString(hex).toHexString(), hex);
}
