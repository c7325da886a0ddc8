#include "math/prime.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/errors.h"

namespace maabe::math {
namespace {

Bignum H(std::string_view hex) { return Bignum::from_hex(hex); }

TEST(Prime, SmallValues) {
  const uint64_t primes[] = {2, 3, 5, 7, 11, 13, 97, 101, 127};
  for (uint64_t p : primes) EXPECT_TRUE(is_probable_prime(Bignum::from_u64(p))) << p;
  const uint64_t composites[] = {0, 1, 4, 6, 9, 15, 21, 100, 121, 169};
  for (uint64_t c : composites)
    EXPECT_FALSE(is_probable_prime(Bignum::from_u64(c))) << c;
}

TEST(Prime, MediumValues) {
  EXPECT_TRUE(is_probable_prime(Bignum::from_u64(1000003)));
  EXPECT_FALSE(is_probable_prime(Bignum::from_u64(1000001)));  // 101*9901
  EXPECT_TRUE(is_probable_prime(Bignum::from_u64(0xffffffffffffffc5ull)));  // 2^64-59
  EXPECT_FALSE(is_probable_prime(Bignum::from_u64(0xffffffffffffffffull)));
}

TEST(Prime, CarmichaelNumbersRejected) {
  for (uint64_t c : {561ull, 1105ull, 1729ull, 41041ull, 825265ull}) {
    EXPECT_FALSE(is_probable_prime(Bignum::from_u64(c))) << c;
  }
}

TEST(Prime, PbcTypeAParametersArePrime) {
  // Group order r = 2^159 + 2^107 + 1 and 512-bit field prime q of PBC's
  // stock "a" parameters.
  EXPECT_TRUE(is_probable_prime(H("8000000000000800000000000000000000000001")));
  EXPECT_TRUE(is_probable_prime(
      H("a7a73868e95fba886edef8ce96e7217e364bb946f5ed839628d1f80010940622"
        "a7afdaf9b049744a459e54dab7ba5be92539e8ff9b4f30a3cf6230c28e284d97")));
}

TEST(Prime, LargeCompositeRejected) {
  // Product of two 256-bit primes must be recognized as composite.
  const Bignum p = H("8000000000000800000000000000000000000001");
  EXPECT_FALSE(is_probable_prime(Bignum::mul(p, p)));
  EXPECT_FALSE(is_probable_prime(
      Bignum::mul(p, H("ffffffffffffffffffffffffffffff61"))));
}

TEST(Prime, MersennePrimes) {
  // 2^89-1 and 2^107-1 are prime; 2^83-1 and 2^97-1 are not.
  const auto mersenne = [](int n) {
    return Bignum::sub(Bignum::shl(Bignum::from_u64(1), n), Bignum::from_u64(1));
  };
  EXPECT_TRUE(is_probable_prime(mersenne(89)));
  EXPECT_TRUE(is_probable_prime(mersenne(107)));
  EXPECT_FALSE(is_probable_prime(mersenne(83)));
  EXPECT_FALSE(is_probable_prime(mersenne(97)));
}

TEST(Prime, AgreesWithTrialDivisionBelow2To16) {
  // Every prime above 173 and every composite from 179^2 = 32041 on gets
  // past the trial division by the 40 bases and runs Miller-Rabin on a
  // one-limb field.
  constexpr uint64_t kLimit = uint64_t(1) << 16;
  std::vector<bool> composite(kLimit, false);
  composite[0] = composite[1] = true;
  for (uint64_t p = 2; p * p < kLimit; ++p) {
    if (composite[p]) continue;
    for (uint64_t m = p * p; m < kLimit; m += p) composite[m] = true;
  }
  int mismatches = 0;
  for (uint64_t n = 0; n < kLimit; ++n) {
    if (is_probable_prime(Bignum::from_u64(n)) == composite[n]) {
      ++mismatches;
      ADD_FAILURE() << n;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Prime, StrongPseudoprimesRejected) {
  // 149491 * 747451 * 34233211 passes bases 2..31; base 37 exposes it.
  EXPECT_FALSE(is_probable_prime(Bignum::from_u64(3825123056546413051ull)));
  // 399165290221 * 798330580441 passes bases 2..37, the first twelve;
  // only the thirteenth base, 41, exposes it.
  EXPECT_FALSE(is_probable_prime(H("437ae92817f9fc85b7e5")));
}

TEST(Prime, Mersenne127Accepted) {
  const Bignum m127 = Bignum::sub(Bignum::shl(Bignum::from_u64(1), 127), Bignum::from_u64(1));
  EXPECT_TRUE(is_probable_prime(m127));
}

TEST(Prime, WiderThan512BitsThrows) {
  // 2^521 - 1 is prime, but the test runs on the fixed-width field,
  // which stops at 512 bits.
  const Bignum m521 = Bignum::sub(Bignum::shl(Bignum::from_u64(1), 521), Bignum::from_u64(1));
  EXPECT_THROW(is_probable_prime(m521), MathError);
}

}  // namespace
}  // namespace maabe::math
