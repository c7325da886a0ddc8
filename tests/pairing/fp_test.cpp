#include "pairing/fp.h"

#include <gtest/gtest.h>

#include "common/errors.h"
#include "pairing/params.h"

namespace maabe::pairing {
namespace {

using math::Bignum;

// Residue checks for the tests only: FpCtx itself needs no more than
// sqrt_candidate (point decompression checks the square).

/// Euler's criterion (a in Montgomery form; zero counts as a residue).
bool is_qr(const FpCtx& fq, const FieldElem& a) {
  if (a.is_zero()) return true;
  const Bignum half_order = Bignum::shr(Bignum::sub(fq.modulus(), Bignum::from_u64(1)), 1);
  return fq.pow(a, half_order) == fq.one();
}

/// Square root for q = 3 (mod 4); throws MathError for a non-residue.
FieldElem sqrt(const FpCtx& fq, const FieldElem& a) {
  const FieldElem root = fq.sqrt_candidate(a);
  if (fq.sqr(root) != a) throw MathError("sqrt: not a quadratic residue");
  return root;
}

class FpTest : public ::testing::Test {
 protected:
  FpTest() : fq(TypeAParams::test_small().q) {}
  FpCtx fq;
  crypto::Drbg rng{std::string_view("fp-test")};
};

TEST_F(FpTest, EncodeDecodeRoundTrip) {
  for (int i = 0; i < 20; ++i) {
    const FieldElem plain = rng.below(fq.modulus());
    EXPECT_EQ(fq.from_mont(fq.to_mont(plain)), plain);
  }
}

TEST_F(FpTest, FieldAxiomsSampled) {
  for (int i = 0; i < 20; ++i) {
    const FieldElem a = fq.random(rng), b = fq.random(rng), c = fq.random(rng);
    EXPECT_EQ(fq.add(a, b), fq.add(b, a));
    EXPECT_EQ(fq.mul(a, b), fq.mul(b, a));
    EXPECT_EQ(fq.mul(a, fq.add(b, c)), fq.add(fq.mul(a, b), fq.mul(a, c)));
    EXPECT_EQ(fq.add(a, fq.neg(a)), fq.zero());
    EXPECT_EQ(fq.mul(a, fq.one()), a);
    EXPECT_EQ(fq.sub(a, b), fq.add(a, fq.neg(b)));
  }
}

TEST_F(FpTest, InverseIsInverse) {
  for (int i = 0; i < 20; ++i) {
    const FieldElem a = fq.random(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(fq.mul(a, fq.inv(a)), fq.one());
  }
  EXPECT_THROW(fq.inv(fq.zero()), MathError);
}

TEST_F(FpTest, SqrMatchesMul) {
  for (int i = 0; i < 20; ++i) {
    const FieldElem a = fq.random(rng);
    EXPECT_EQ(fq.sqr(a), fq.mul(a, a));
  }
}

TEST_F(FpTest, SqrtOfSquaresWorks) {
  int residues = 0;
  for (int i = 0; i < 30; ++i) {
    const FieldElem a = fq.random(rng);
    const FieldElem sq = fq.sqr(a);
    ASSERT_TRUE(is_qr(fq, sq));
    const FieldElem root = sqrt(fq, sq);
    EXPECT_TRUE(root == a || root == fq.neg(a));
    ++residues;
  }
  EXPECT_GT(residues, 0);
}

TEST_F(FpTest, NonResidueDetected) {
  // -1 is a non-residue because q = 3 (mod 4).
  const FieldElem minus_one = fq.neg(fq.one());
  EXPECT_FALSE(is_qr(fq, minus_one));
  EXPECT_THROW(sqrt(fq, minus_one), MathError);
}

TEST_F(FpTest, QrMultiplicativity) {
  // Product of two non-residues is a residue.
  FieldElem nr1, nr2;
  bool found1 = false;
  for (int i = 0; i < 100 && !found1; ++i) {
    const FieldElem a = fq.random(rng);
    if (!a.is_zero() && !is_qr(fq, a)) {
      if (nr1.is_zero()) {
        nr1 = a;
      } else {
        nr2 = a;
        found1 = true;
      }
    }
  }
  ASSERT_TRUE(found1);
  EXPECT_TRUE(is_qr(fq, fq.mul(nr1, nr2)));
}

TEST_F(FpTest, SerializationRoundTrip) {
  for (int i = 0; i < 10; ++i) {
    const FieldElem a = fq.random(rng);
    const Bytes b = fq.to_bytes(a);
    EXPECT_EQ(b.size(), fq.byte_length());
    EXPECT_EQ(fq.from_bytes(b), a);
  }
}

TEST_F(FpTest, FromBytesRejectsBadInput) {
  EXPECT_THROW(fq.from_bytes(Bytes(fq.byte_length() - 1)), WireError);
  EXPECT_THROW(fq.from_bytes(Bytes(fq.byte_length() + 1)), WireError);
  // The modulus itself is not a reduced residue.
  EXPECT_THROW(fq.from_bytes(fq.modulus().to_bytes_be(fq.byte_length())), WireError);
}

}  // namespace
}  // namespace maabe::pairing
