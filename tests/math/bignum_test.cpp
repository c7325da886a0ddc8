#include "math/bignum.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>

#include "common/errors.h"
#include "support/bignum_ref.h"

namespace maabe::math {
namespace {

Bignum H(std::string_view hex) { return Bignum::from_hex(hex); }

TEST(Bignum, DefaultIsZero) {
  Bignum b;
  EXPECT_TRUE(b.is_zero());
  EXPECT_EQ(b.bit_length(), 0);
  EXPECT_EQ(b.to_hex(), "0");
  EXPECT_EQ(b.to_u64(), 0u);
}

TEST(Bignum, FromU64RoundTrip) {
  for (uint64_t v : {0ull, 1ull, 2ull, 255ull, 256ull, 0xdeadbeefull,
                     0xffffffffffffffffull}) {
    EXPECT_EQ(Bignum::from_u64(v).to_u64(), v);
  }
}

TEST(Bignum, HexRoundTrip) {
  const char* cases[] = {"1", "f", "10", "deadbeef",
                         "123456789abcdef0123456789abcdef",
                         "ffffffffffffffffffffffffffffffffffffffff"};
  for (const char* c : cases) {
    EXPECT_EQ(H(c).to_hex(), c) << c;
  }
}

TEST(Bignum, HexPrefixAccepted) {
  EXPECT_EQ(H("0xff").to_u64(), 255u);
  EXPECT_EQ(H("0XFF").to_u64(), 255u);
}

TEST(Bignum, FromHexRejectsGarbage) {
  EXPECT_THROW(H(""), MathError);
  EXPECT_THROW(H("xyz"), MathError);
  EXPECT_THROW(H("12 34"), MathError);
}

TEST(Bignum, BytesRoundTrip) {
  const Bignum v = H("0102030405060708090a0b0c0d0e0f");
  const Bytes be = v.to_bytes_be(15);
  EXPECT_EQ(to_hex(be), "0102030405060708090a0b0c0d0e0f");
  EXPECT_EQ(Bignum::from_bytes_be(be), v);
  // Wider width pads with zeros on the left.
  const Bytes wide = v.to_bytes_be(20);
  EXPECT_EQ(wide.size(), 20u);
  EXPECT_EQ(Bignum::from_bytes_be(wide), v);
  // Too-narrow width throws.
  EXPECT_THROW(v.to_bytes_be(14), MathError);
}

TEST(Bignum, FromBytesSkipsLeadingZeros) {
  const Bytes b = {0, 0, 0, 1, 2};
  EXPECT_EQ(Bignum::from_bytes_be(b).to_u64(), 0x0102u);
}

TEST(Bignum, BitAccess) {
  const Bignum v = H("8000000000000001");  // bit 63 and bit 0
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(63));
  EXPECT_FALSE(v.bit(1));
  EXPECT_FALSE(v.bit(64));
  EXPECT_EQ(v.bit_length(), 64);
  EXPECT_EQ(H("10000000000000000").bit_length(), 65);
}

TEST(Bignum, Comparisons) {
  EXPECT_LT(H("ff"), H("100"));
  EXPECT_GT(H("ffffffffffffffffff"), H("ffffffffffffffff"));
  EXPECT_EQ(H("abc"), H("0abc"));
  EXPECT_LE(H("5"), H("5"));
}

TEST(Bignum, AddSubSmall) {
  EXPECT_EQ(Bignum::add(H("ffffffffffffffff"), H("1")).to_hex(), "10000000000000000");
  EXPECT_EQ(Bignum::sub(H("10000000000000000"), H("1")).to_hex(), "ffffffffffffffff");
  EXPECT_THROW(Bignum::sub(H("1"), H("2")), MathError);
  EXPECT_TRUE(Bignum::sub(H("7"), H("7")).is_zero());
}

TEST(Bignum, MulSmall) {
  EXPECT_EQ(Bignum::mul(H("ffffffffffffffff"), H("ffffffffffffffff")).to_hex(),
            "fffffffffffffffe0000000000000001");
  EXPECT_TRUE(Bignum::mul(H("12345"), Bignum()).is_zero());
}

TEST(Bignum, Shifts) {
  EXPECT_EQ(Bignum::shl(H("1"), 127).to_hex(), "80000000000000000000000000000000");
  EXPECT_EQ(Bignum::shr(H("80000000000000000000000000000000"), 127).to_u64(), 1u);
  EXPECT_TRUE(Bignum::shr(H("ff"), 9).is_zero());
  EXPECT_EQ(Bignum::shl(H("ff"), 0), H("ff"));
  // shl then shr is identity.
  const Bignum v = H("123456789abcdef123456789");
  EXPECT_EQ(Bignum::shr(Bignum::shl(v, 67), 67), v);
}

TEST(Bignum, CapacityOverflowThrows) {
  const Bignum big = Bignum::shl(H("1"), 64 * Bignum::kMaxLimbs - 1);
  EXPECT_THROW(Bignum::shl(big, 64), MathError);
  EXPECT_THROW(Bignum::mul(big, big), MathError);
}

TEST(Bignum, DivmodBasics) {
  Bignum q, r;
  Bignum::divmod(H("64"), H("a"), &q, &r);  // 100 / 10
  EXPECT_EQ(q.to_u64(), 10u);
  EXPECT_TRUE(r.is_zero());
  Bignum::divmod(H("65"), H("a"), &q, &r);
  EXPECT_EQ(q.to_u64(), 10u);
  EXPECT_EQ(r.to_u64(), 1u);
  // Dividend smaller than divisor.
  Bignum::divmod(H("5"), H("a0000000000000000"), &q, &r);
  EXPECT_TRUE(q.is_zero());
  EXPECT_EQ(r.to_u64(), 5u);
  EXPECT_THROW(Bignum::divmod(H("5"), Bignum(), &q, &r), MathError);
}

// Vectors generated with Python's arbitrary-precision integers.
struct ArithVector {
  const char* a;
  const char* b;
  const char* sum;
  const char* prod;
  const char* quot;
  const char* rem;
};

const ArithVector kArith[] = {
    {"ef0361600a35a099950d836f675cc81e74ef5e8e25d940ed904759531985d5d9dc9f81818e811892f902bd23f0824128b2f330c5c7fd0a6a3a4506513270e",
     "916b0d549b",
     "ef0361600a35a099950d836f675cc81e74ef5e8e25d940ed904759531985d5d9dc9f81818e811892f902bd23f0824128b2f330c5c7fd0a6a3a4e1d0207ba9",
     "87c4dd0342b1845e568ceb4b9e76b882f926d7b3ffff0c653683a001347e33b6443fd330e95c5509465c52063e84d8df9409da2a1e90343ebe0c788c92c2011511f3d7a",
     "1a4c4b9cd6231928be64172530c48e67f4b5420344ded80f4494a7f8648904eb33e89d450ce5094ec99f326a56018590d6245b128561827a202a",
     "72271e5a0"},
    {"f21fb17c2390c192cfd3ac94af0f21ddb66cad4a268d116ece", "a139263059",
     "f21fb17c2390c192cfd3ac94af0f21ddb66cad4ac7c6379f27",
     "987bfbcc0578ae3abea1cf575cc28387bcd17c9aa246953e83aaa06a259e",
     "18075740b8a79d41719c8f4c78831f9a83b21f441", "45e5d15435"},
    {"23658cda1495e60af5",
     "38f6d05584ef8aa38922766581e27a1c08a6a63ec24ede6a46b4cb2424a23d5962217beaddbc496cb8e81973e0becd7b03898d190f9ebdacc",
     "38f6d05584ef8aa38922766581e27a1c08a6a63ec24ede6a46b4cb2424a23d5962217beaddbc496cb8e81973e0becd7d39e25aba58fd1e5c1",
     "7e05733639b031a61909372eeefa41a23119b67a10116f16e3fc1ad6f9050d74e86d8e45976e4208e3e55101a444cad48c46628a358ae2917a4e75d9b1b48c5d3c",
     "0", "23658cda1495e60af5"},
    {"8c18f135d25f557203301850c5a38fd547923a736994e3bf91", "90b64ce422",
     "8c18f135d25f557203301850c5a38fd547923a73fa4b30a3b3",
     "4f31cb7e03074e43b10fedb4fb12890788824723f4888ddb3bfe91e89542",
     "f7d6247f02da0d878e9b7a84713c656c1880a70e", "6632dd17b5"},
    {"2b7f15052434b9b5df",
     "3b2f14c942e05319acb5c74273f98e2774cbd87ad5c90a9587403e430ec66a78795e761d17731af10506bf2efc6f877186d76b07e881ed162",
     "3b2f14c942e05319acb5c74273f98e2774cbd87ad5c90a9587403e430ec66a78795e761d17731af10506bf2efc6f87743ec8bb5a2bcd88741",
     "a0e49b52b129514d718394d7fc227c98b8018e3ae38ed6d8a037395ad858c5300b1629c6a8ac68cd9f1b126db780378299c0002369d8c0249c0dba310b94b4ae5e",
     "0", "2b7f15052434b9b5df"},
    {"ba57ee05cde00902c77ebff206867347214cdd2055930d6eaf", "c972e6cc3a",
     "ba57ee05cde00902c77ebff206867347214cdd211f05f43ae9",
     "92a2ad0a355d645bd923caa3fb8d969903026890910d3dc78554647887a6",
     "eccddff8992421bc6ab88498294b009e0bc5982b", "189664b0f1"},
};

TEST(Bignum, ArithmeticVectors) {
  for (const auto& v : kArith) {
    const Bignum a = H(v.a), b = H(v.b);
    EXPECT_EQ(Bignum::add(a, b), H(v.sum));
    EXPECT_EQ(Bignum::mul(a, b), H(v.prod));
    Bignum q, r;
    Bignum::divmod(a, b, &q, &r);
    EXPECT_EQ(q, H(v.quot));
    EXPECT_EQ(r, H(v.rem));
  }
}

struct PowVector {
  const char* base;
  const char* exp;
  const char* mod;
  const char* result;
};

const PowVector kPow[] = {
    {"92b8ede0d7ac3baea9e13deef86ab1031d0f646e1f40a097c976bf46c697d2caf82eeeacbe3",
     "5051c1ccd17f9acae01f5057ca02135e",
     "a6e5790f82ec1d3fcff2a3af4d46b0a18e8830e07bc1e398f1012bd4acefaecbd389be4bcfd",
     "4bb51152b563cab5967536ef35edda4c79b8b068b87239645061b80ac04b8accfd5f274ca05"},
    {"b39bb2d420f0f88080b10a3d6b2aa05e11ab2715945795e8229451abd81f1d69ed617f5e838",
     "fe3b890b93f448b3a5aa3c814f426dcb",
     "d70119a72d174c9df6acc011cdd9474031b7f26144b98289fcd59a54a7bb1fee08f57124243",
     "b824e30fe55ce4aa24ec1dc48ea2250dff6341350c4968bdb34b048eefae6efce1d7a3a305"},
    {"14a7f1b103cdf1582b0eab477d26415479c65dc9f503f63af83bd0561e6211c70cf4995239a",
     "8ca8181166d2287672fdf2022a96fb1a",
     "85c58d5563dab2cd31ee315128862c33a4fb774eb5248db40af72158370d269a9a5ae658f33",
     "1cde2f21ddd34317e0996f2fc1c6a2e90b8e1965a0110130093958bc5b4c9a88a18fcfeb223"},
    {"2d1153e7c2a26a2c0bd3b1287fff52ddf5d616499c9e25a7605aec6f0245bd86d40fc891b4b",
     "3bbbe9eaa8948c893b61867626bb7dbd",
     "ea5b4d66a3a47469a4d8cdb305fdd2e16096e36aab0d1bc52d9230d977ee22571594720771f",
     "8fd167e035cfb2cfa8602bb0fc135c604edcae29086e54f0438b700e054f87a101a03171236"},
};

TEST(Bignum, ModPowVectors) {
  for (const auto& v : kPow) {
    EXPECT_EQ(reference::mod_pow(H(v.base), H(v.exp), H(v.mod)), H(v.result));
  }
}

struct InvVector {
  const char* a;
  const char* m;
  const char* inv;
};

const InvVector kInv[] = {
    {"70dd27a65bd628881ad1b72dba7abe1c29e1a8ef4f341e07a83f73f16dbf4a8b4",
     "a010c4759482c9cbc43435cc52eae05cf96d0cc5fd4c28c2e7c26847f0316909f",
     "782b3a5b647c876b79b2b7ca7d54c4c7be8b1148d8a0141f49c7fb3db6c959299"},
    {"99c94309570dc1951c2442f9298cb3a570ccec313571810afc132d0d113db17f",
     "e8f2c6ec8cc4169a3ae3a2b7fdfe01893f3aed0b6c7ac1491def88334e647cb8f",
     "10dd1aff90dfd02930016377a58f1ca6b33f608022ef5a70d2e92e2e221431df7"},
    {"4a268aa872607679d6050914a9d33a01c353c631cdfd43f371200339d068739fc",
     "95d158a2ff2ee4e4519f9919c895fd7b326b94c7f9118bb16000f49c81a358ca1",
     "2ea1a1e5a0bae4d68bf2731be40cc39dfa5fdd0f5801e0ad92fb9714891719177"},
    {"124e4e25a15fc899e4fd58dbe7bdc968b7afb2c68774b15d7fa529ba3fe3bfadc",
     "fd953ee261d87cec31f7296ab7961fd925d39d0a89a2ef80f58ee8571f4998d7d",
     "6a70c6f3eace32674b8d3a170561bb3871cce2270c6d5b33464cb720b8b809ac3"},
};

TEST(Bignum, ModInverseVectors) {
  for (const auto& v : kInv) {
    const Bignum inv = reference::mod_inverse(H(v.a), H(v.m));
    EXPECT_EQ(inv, H(v.inv));
    EXPECT_TRUE(reference::mod_mul(H(v.a), inv, H(v.m)).is_one());
  }
}

TEST(Bignum, ModInverseEvenModulus) {
  // Euclid path: inverse of 3 mod 2^64.
  const Bignum m = Bignum::shl(H("1"), 64);
  const Bignum inv = reference::mod_inverse(H("3"), m);
  EXPECT_TRUE(Bignum::mod(Bignum::mul(H("3"), inv), m).is_one());
  // Non-invertible element throws.
  EXPECT_THROW(reference::mod_inverse(H("2"), m), MathError);
}

TEST(Bignum, ModInverseRejectsZero) {
  EXPECT_THROW(reference::mod_inverse(Bignum(), H("17")), MathError);
  EXPECT_THROW(reference::mod_inverse(H("5"), H("1")), MathError);
}

TEST(Bignum, KnuthAddBackBranch) {
  // Inputs crafted (u = v*k - epsilon) so that the qhat estimate in
  // Algorithm D overshoots and the rarely-taken "add back" correction
  // executes. Verified against Python's arbitrary-precision division.
  const std::pair<const char*, const char*> cases[] = {
      {"12f394ad1b8de1547ec631620ed47d44be873524f6033fb479df1a74b68532f0",
       "c9e9c616612e7696a6cecc1b78e510617311d8a3c2ce6f44"},
      {"da22c3b1363174f94f6ef1aea2328401b79b508b31330907b577b1c82e12d81a",
       "f1fd42a29755d4c13a902931cd447e35b8b6d8fe442e3d43"},
      {"549218a751adaf682f402c423ebab6a4265982d77bbff2c89476b6a1a3124b01",
       "b80208a9ad45f23d3b1a11df587fd2803bab6c398d88348a"},
  };
  for (const auto& [ua, va] : cases) {
    const Bignum u = H(ua), v = H(va);
    Bignum q, r;
    Bignum::divmod(u, v, &q, &r);
    EXPECT_LT(Bignum::cmp(r, v), 0);
    EXPECT_EQ(Bignum::add(Bignum::mul(q, v), r), u);
  }
}

// ---- Randomized property tests -----------------------------------------

class BignumProperty : public ::testing::TestWithParam<int> {};

std::mt19937_64 rng_for(int seed) { return std::mt19937_64(0xC0FFEE + seed); }

Bignum random_bignum(std::mt19937_64& rng, int max_limbs) {
  std::uniform_int_distribution<int> limbs(1, max_limbs);
  const int n = limbs(rng);
  Bytes bytes(size_t(n) * 8);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng());
  return Bignum::from_bytes_be(bytes);
}

TEST_P(BignumProperty, AddSubRoundTrip) {
  auto rng = rng_for(GetParam());
  const Bignum a = random_bignum(rng, 12), b = random_bignum(rng, 12);
  const Bignum s = Bignum::add(a, b);
  EXPECT_EQ(Bignum::sub(s, b), a);
  EXPECT_EQ(Bignum::sub(s, a), b);
}

TEST_P(BignumProperty, MulCommutesAndDistributes) {
  auto rng = rng_for(GetParam() + 1000);
  const Bignum a = random_bignum(rng, 8), b = random_bignum(rng, 8),
               c = random_bignum(rng, 8);
  EXPECT_EQ(Bignum::mul(a, b), Bignum::mul(b, a));
  EXPECT_EQ(Bignum::mul(a, Bignum::add(b, c)),
            Bignum::add(Bignum::mul(a, b), Bignum::mul(a, c)));
}

TEST_P(BignumProperty, DivisionIdentity) {
  auto rng = rng_for(GetParam() + 2000);
  const Bignum a = random_bignum(rng, 16);
  const Bignum b = random_bignum(rng, 7);
  if (b.is_zero()) return;
  Bignum q, r;
  Bignum::divmod(a, b, &q, &r);
  EXPECT_LT(Bignum::cmp(r, b), 0);
  EXPECT_EQ(Bignum::add(Bignum::mul(q, b), r), a);
}

TEST_P(BignumProperty, DivisionBySelfAndOne) {
  auto rng = rng_for(GetParam() + 3000);
  const Bignum a = random_bignum(rng, 10);
  if (a.is_zero()) return;
  Bignum q, r;
  Bignum::divmod(a, a, &q, &r);
  EXPECT_TRUE(q.is_one());
  EXPECT_TRUE(r.is_zero());
  Bignum::divmod(a, Bignum::from_u64(1), &q, &r);
  EXPECT_EQ(q, a);
  EXPECT_TRUE(r.is_zero());
}

TEST_P(BignumProperty, SmallValuesMatchNativeArithmetic) {
  auto rng = rng_for(GetParam() + 4000);
  const uint64_t a = rng() >> 33, b = (rng() >> 33) | 1;
  EXPECT_EQ(Bignum::add(Bignum::from_u64(a), Bignum::from_u64(b)).to_u64(), a + b);
  EXPECT_EQ(Bignum::mul(Bignum::from_u64(a), Bignum::from_u64(b)).to_u64(), a * b);
  Bignum q, r;
  Bignum::divmod(Bignum::from_u64(a), Bignum::from_u64(b), &q, &r);
  EXPECT_EQ(q.to_u64(), a / b);
  EXPECT_EQ(r.to_u64(), a % b);
}

TEST_P(BignumProperty, HexAndBytesAgree) {
  auto rng = rng_for(GetParam() + 5000);
  const Bignum a = random_bignum(rng, 9);
  EXPECT_EQ(Bignum::from_hex(a.to_hex()), a);
  EXPECT_EQ(Bignum::from_bytes_be(a.to_bytes_be_min()), a);
}

TEST_P(BignumProperty, ModPowMatchesRepeatedMultiplication) {
  auto rng = rng_for(GetParam() + 6000);
  const Bignum m = random_bignum(rng, 3);
  if (m.bit_length() < 2) return;
  const Bignum base = Bignum::mod(random_bignum(rng, 3), m);
  const int e = static_cast<int>(rng() % 30);
  Bignum expect = Bignum::mod(Bignum::from_u64(1), m);
  for (int i = 0; i < e; ++i) expect = reference::mod_mul(expect, base, m);
  EXPECT_EQ(reference::mod_pow(base, Bignum::from_u64(e), m), expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BignumProperty, ::testing::Range(0, 25));

}  // namespace
}  // namespace maabe::math
