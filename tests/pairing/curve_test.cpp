#include "pairing/curve.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/errors.h"
#include "pairing/group.h"
#include "pairing/params.h"

namespace maabe::pairing {
namespace {

using math::Bignum;

class CurveTest : public ::testing::Test {
 protected:
  CurveTest() : grp(Group::test_small()) {}
  std::shared_ptr<const Group> grp;
  crypto::Drbg rng{std::string_view("curve-test")};
};

TEST_F(CurveTest, GeneratorHasOrderR) {
  const G1& g = grp->g();
  EXPECT_FALSE(g.is_identity());
  EXPECT_TRUE(g.mul(grp->zr_from_bignum(grp->order())).is_identity());
  // No smaller order: r is prime, so any element is either identity or
  // has order exactly r; g^1 != identity was checked above.
  EXPECT_FALSE(g.mul(grp->zr_one()).is_identity());
}

TEST_F(CurveTest, GroupLawBasics) {
  const G1 p = grp->g1_random(rng);
  const G1 q = grp->g1_random(rng);
  const G1 o = grp->g1_identity();
  EXPECT_EQ(p + o, p);
  EXPECT_EQ(o + p, p);
  EXPECT_EQ(p + q, q + p);
  EXPECT_TRUE((p + p.neg()).is_identity());
  EXPECT_EQ(p - q, p + q.neg());
}

TEST_F(CurveTest, AssociativitySampled) {
  for (int i = 0; i < 10; ++i) {
    const G1 a = grp->g1_random(rng), b = grp->g1_random(rng), c = grp->g1_random(rng);
    EXPECT_EQ((a + b) + c, a + (b + c));
  }
}

TEST_F(CurveTest, ScalarMulMatchesRepeatedAddition) {
  const G1 p = grp->g1_random(rng);
  G1 acc = grp->g1_identity();
  for (uint64_t k = 0; k < 12; ++k) {
    EXPECT_EQ(p.mul(grp->zr_from_u64(k)), acc) << k;
    acc = acc + p;
  }
}

TEST_F(CurveTest, ScalarMulDistributes) {
  const G1 p = grp->g1_random(rng);
  const Zr a = grp->zr_random(rng), b = grp->zr_random(rng);
  EXPECT_EQ(p.mul(a) + p.mul(b), p.mul(a + b));
  EXPECT_EQ(p.mul(a).mul(b), p.mul(a * b));
}

TEST_F(CurveTest, DoublingConsistent) {
  const G1 p = grp->g1_random(rng);
  EXPECT_EQ(p + p, p.mul(grp->zr_from_u64(2)));
}

TEST_F(CurveTest, RandomPointsAreInSubgroup) {
  for (int i = 0; i < 5; ++i) {
    const G1 p = grp->g1_random(rng);
    EXPECT_TRUE(p.mul(grp->zr_from_bignum(grp->order())).is_identity());
  }
}

TEST_F(CurveTest, HashToG1DeterministicAndInSubgroup) {
  const G1 a1 = grp->hash_to_g1(std::string_view("attribute:doctor"));
  const G1 a2 = grp->hash_to_g1(std::string_view("attribute:doctor"));
  const G1 b = grp->hash_to_g1(std::string_view("attribute:nurse"));
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_FALSE(a1.is_identity());
  EXPECT_TRUE(a1.mul(grp->zr_from_bignum(grp->order())).is_identity());
}

TEST_F(CurveTest, SerializationRoundTrip) {
  for (int i = 0; i < 10; ++i) {
    const G1 p = grp->g1_random(rng);
    const Bytes b = p.to_bytes();
    EXPECT_EQ(b.size(), grp->g1_size());
    EXPECT_EQ(grp->g1_from_bytes(b), p);
  }
}

TEST_F(CurveTest, SerializationIdentity) {
  const Bytes b = grp->g1_identity().to_bytes();
  EXPECT_EQ(b.size(), grp->g1_size());
  EXPECT_TRUE(grp->g1_from_bytes(b).is_identity());
}

TEST_F(CurveTest, SerializationNegatesWithSignBit) {
  const G1 p = grp->g1_random(rng);
  Bytes b = p.to_bytes();
  b.back() ^= 1;  // flip the sign flag
  EXPECT_EQ(grp->g1_from_bytes(b), p.neg());
}

TEST_F(CurveTest, UncompressedSerializationRoundTrip) {
  for (int i = 0; i < 10; ++i) {
    const G1 p = grp->g1_random(rng);
    const Bytes b = p.to_bytes_uncompressed();
    EXPECT_EQ(b.size(), grp->g1_uncompressed_size());
    EXPECT_EQ(grp->g1_from_bytes_uncompressed(b), p);
  }
  const Bytes id = grp->g1_identity().to_bytes_uncompressed();
  EXPECT_EQ(id.size(), grp->g1_uncompressed_size());
  EXPECT_TRUE(grp->g1_from_bytes_uncompressed(id).is_identity());
}

TEST_F(CurveTest, UncompressedDeserializationRejectsMalformed) {
  const G1 p = grp->g1_random(rng);
  const Bytes good = p.to_bytes_uncompressed();
  EXPECT_THROW(grp->g1_from_bytes_uncompressed(Bytes(good.size() - 1)), WireError);
  Bytes flag = good;
  flag.back() = 1;  // only 0 (point) and 2 (infinity) are valid
  EXPECT_THROW(grp->g1_from_bytes_uncompressed(flag), WireError);
  Bytes off = good;
  off[good.size() / 2] ^= 0x5a;  // break y: (x, y) leaves the curve
  EXPECT_THROW(grp->g1_from_bytes_uncompressed(off), WireError);
  Bytes inf(grp->g1_uncompressed_size(), 0);
  inf.back() = 2;
  inf[0] = 1;  // nonzero coordinate bytes in an infinity encoding
  EXPECT_THROW(grp->g1_from_bytes_uncompressed(inf), WireError);
}

TEST_F(CurveTest, DeserializationRejectsMalformed) {
  EXPECT_THROW(grp->g1_from_bytes(Bytes(grp->g1_size() - 1)), WireError);
  Bytes bad(grp->g1_size(), 0);
  bad.back() = 7;  // invalid flag
  EXPECT_THROW(grp->g1_from_bytes(bad), WireError);
  // x = 1: rhs = 2; whether 2 is a QR depends on q, so instead use a
  // known non-liftable x by searching.
  crypto::Drbg local("bad-x");
  for (int i = 0; i < 50; ++i) {
    Bytes cand = local.bytes(grp->g1_size());
    cand.back() = 0;
    try {
      (void)grp->g1_from_bytes(cand);
    } catch (const WireError&) {
      SUCCEED();
      return;
    }
  }
  FAIL() << "never saw a rejected x-coordinate";
}

TEST_F(CurveTest, MixedGroupOperationsRejected) {
  auto other = Group::test_small();
  const G1 p = grp->g1_random(rng);
  crypto::Drbg rng2("other");
  const G1 q = other->g1_random(rng2);
  EXPECT_THROW((void)(p + q), MathError);
  EXPECT_THROW((void)(p == q), MathError);
  EXPECT_THROW((void)p.mul(other->zr_one()), MathError);
}

TEST_F(CurveTest, UninitializedElementsRejected) {
  G1 p;
  EXPECT_THROW((void)p.to_bytes(), MathError);
  EXPECT_THROW((void)p.neg(), MathError);
  Zr z;
  EXPECT_THROW((void)z.to_bytes(), MathError);
}

// --------------------------------------------------- batched decode --

/// The reference: g1_from_bytes on each encoding in order. Returns the
/// first WireError's message, or "" when every encoding decodes.
std::string decode_each(const Group& grp, const std::vector<Bytes>& encs, std::vector<G1>* out) {
  try {
    for (const Bytes& e : encs) out->push_back(grp.g1_from_bytes(e));
  } catch (const WireError& e) {
    return e.what();
  }
  return "";
}

std::string decode_batch(const Group& grp, const std::vector<Bytes>& encs, std::vector<G1>* out) {
  const std::vector<ByteView> views(encs.begin(), encs.end());
  try {
    *out = grp.g1_from_bytes_batch(views);
  } catch (const WireError& e) {
    return e.what();
  }
  return "";
}

/// Valid encodings of batch size n: subgroup points of either sign,
/// the identity and the on-curve point (0, 0).
std::vector<Bytes> valid_encodings(const Group& grp, crypto::Drbg& rng, size_t n) {
  std::vector<Bytes> encs;
  for (size_t k = 0; k < n; ++k) {
    switch (k % 7) {
      case 3: encs.push_back(grp.g1_identity().to_bytes()); break;
      case 5: encs.push_back(Bytes(grp.g1_size(), 0)); break;  // x = 0, y = 0
      default: encs.push_back(grp.g1_random(rng).to_bytes());
    }
  }
  return encs;
}

/// An x whose x^3 + x is a non-residue, encoded with `flag`.
Bytes off_curve_encoding(const Group& grp, uint8_t flag) {
  crypto::Drbg local(std::string_view("batch-off-curve"));
  const math::Bignum& q = grp.params().q;
  for (;;) {
    Bytes enc = local.below(q).to_bytes_be(grp.g1_size() - 1);
    enc.push_back(flag);
    try {
      (void)grp.g1_from_bytes(enc);
    } catch (const WireError&) {
      return enc;
    }
  }
}

void check_batch_decode(const Group& grp) {
  crypto::Drbg rng(std::string_view("g1-batch"));
  for (size_t n = 0; n <= 20; ++n) {
    const std::vector<Bytes> encs = valid_encodings(grp, rng, n);
    std::vector<G1> each, batch;
    ASSERT_EQ(decode_each(grp, encs, &each), "");
    ASSERT_EQ(decode_batch(grp, encs, &batch), "");
    ASSERT_EQ(batch.size(), n);
    for (size_t k = 0; k < n; ++k) {
      EXPECT_EQ(batch[k].to_bytes(), each[k].to_bytes()) << k << " of " << n;
      EXPECT_EQ(batch[k].to_bytes(), encs[k]) << k << " of " << n;
    }
  }

  // One fault at every position of batches around the 8-lane pass size.
  const size_t w = grp.g1_size() - 1;  // x bytes
  Bytes bad_flag = grp.g1_random(rng).to_bytes();
  bad_flag.back() = 3;
  Bytes bad_infinity(grp.g1_size(), 0);
  bad_infinity.back() = 2;
  bad_infinity[w / 2] = 1;
  Bytes x_too_big = grp.params().q.to_bytes_be(w);
  x_too_big.push_back(0);
  Bytes odd_zero(grp.g1_size(), 0);
  odd_zero.back() = 1;  // flag 1 on y = 0
  const std::vector<std::pair<const char*, Bytes>> faults = {
      {"bad flag", bad_flag},
      {"malformed infinity", bad_infinity},
      {"x >= q", x_too_big},
      {"non-residue, flag 0", off_curve_encoding(grp, 0)},
      {"non-residue, flag 1", off_curve_encoding(grp, 1)},
      {"flag 1 on y = 0", odd_zero},
      {"short", Bytes(grp.g1_size() - 1, 0)},
  };
  for (const size_t n : {1, 2, 3, 8, 9, 11, 17}) {
    const std::vector<Bytes> good = valid_encodings(grp, rng, n);
    for (const auto& [what, fault] : faults) {
      for (size_t at = 0; at < n; ++at) {
        std::vector<Bytes> encs = good;
        encs[at] = fault;
        std::vector<G1> each, batch;
        const std::string want = decode_each(grp, encs, &each);
        ASSERT_NE(want, "") << what;
        EXPECT_EQ(decode_batch(grp, encs, &batch), want) << what << " at " << at << " of " << n;
      }
    }
  }
}

TEST(G1Batch, MatchesPerPointDecodeOnTestCurve) { check_batch_decode(*Group::test_small()); }

TEST(G1Batch, MatchesPerPointDecodeOnPaperCurve) { check_batch_decode(*Group::pbc_a512()); }

}  // namespace
}  // namespace maabe::pairing
