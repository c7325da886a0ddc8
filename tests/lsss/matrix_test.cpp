#include "lsss/matrix.h"

#include <gtest/gtest.h>

#include "common/errors.h"
#include "lsss/parser.h"
#include "support/bignum_ref.h"

namespace maabe::lsss {
namespace {

using math::Bignum;
using pairing::Group;
using pairing::Zr;

// e mod r on Bignum, negating in uint64_t so INT64_MIN is defined.
Bignum reference_entry(int64_t e, const Bignum& order) {
  const uint64_t mag = e >= 0 ? static_cast<uint64_t>(e) : 0 - static_cast<uint64_t>(e);
  const Bignum v = Bignum::mod(Bignum::from_u64(mag), order);
  return e >= 0 ? v : Bignum::mod_sub(Bignum(), v, order);
}

// The reference solver: the elimination LsssMatrix::reconstruction
// runs, in the same pivot order, on variable-length Bignum residues
// (a mod_inverse per pivot, a mod_mul per update).
std::optional<std::vector<ReconCoeff>> reference_reconstruction(
    const LsssMatrix& m, const Group& grp, const std::set<Attribute>& have) {
  std::vector<int> selected;
  for (int i = 0; i < m.rows(); ++i) {
    if (have.contains(m.row_attribute(i))) selected.push_back(i);
  }
  if (selected.empty()) return std::nullopt;
  const int n = m.cols();
  const int k = static_cast<int>(selected.size());
  const Bignum& order = grp.order();

  std::vector<std::vector<Bignum>> a(n, std::vector<Bignum>(k + 1));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) a[i][j] = reference_entry(m.row(selected[j])[i], order);
  }
  a[0][k] = Bignum::from_u64(1);

  std::vector<int> pivot_col_of_row(n, -1);
  int rank = 0;
  for (int col = 0; col < k && rank < n; ++col) {
    int piv = -1;
    for (int r = rank; r < n; ++r) {
      if (!a[r][col].is_zero()) {
        piv = r;
        break;
      }
    }
    if (piv < 0) continue;
    std::swap(a[rank], a[piv]);
    const Bignum inv = math::reference::mod_inverse(a[rank][col], order);
    for (int j = col; j <= k; ++j) a[rank][j] = math::reference::mod_mul(a[rank][j], inv, order);
    for (int r = 0; r < n; ++r) {
      if (r == rank || a[r][col].is_zero()) continue;
      const Bignum f = a[r][col];
      for (int j = col; j <= k; ++j)
        a[r][j] = Bignum::mod_sub(a[r][j], math::reference::mod_mul(f, a[rank][j], order), order);
    }
    pivot_col_of_row[rank] = col;
    ++rank;
  }
  for (int r = rank; r < n; ++r) {
    if (!a[r][k].is_zero()) return std::nullopt;
  }
  std::vector<Bignum> w(k);
  for (int r = 0; r < rank; ++r) w[pivot_col_of_row[r]] = a[r][k];
  std::vector<ReconCoeff> out;
  for (int j = 0; j < k; ++j) {
    if (!w[j].is_zero()) out.push_back({selected[j], grp.zr_from_bignum(w[j])});
  }
  if (out.empty()) return std::nullopt;
  return out;
}

// Row for row and value for value.
void expect_same_coefficients(const std::optional<std::vector<ReconCoeff>>& got,
                              const std::optional<std::vector<ReconCoeff>>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  ASSERT_EQ(got->size(), want->size());
  for (size_t i = 0; i < got->size(); ++i) {
    EXPECT_EQ((*got)[i].row, (*want)[i].row) << "coefficient " << i;
    EXPECT_EQ((*got)[i].w.value(), (*want)[i].w.value()) << "coefficient " << i;
  }
}

/// "attr0@AA0 AND attr1@AA0 AND ..." over n_auth authorities with
/// n_attr attributes each (the Fig. 3 / read-wide policy shape).
std::string full_and_text(int n_auth, int n_attr) {
  std::string text;
  for (int k = 0; k < n_auth; ++k) {
    for (int j = 0; j < n_attr; ++j) {
      if (!text.empty()) text += " AND ";
      text += "attr" + std::to_string(j) + "@AA" + std::to_string(k);
    }
  }
  return text;
}

class MatrixTest : public ::testing::Test {
 protected:
  MatrixTest() : grp(Group::test_small()) {}

  // Reconstructs sum w_i * lambda_i and checks it equals s.
  void expect_reconstructs(const LsssMatrix& m, const std::set<Attribute>& have,
                           bool expect_ok) {
    const Zr s = grp->zr_random(rng);
    const std::vector<Zr> shares = m.share(*grp, s, rng);
    const auto coeffs = m.reconstruction(*grp, have);
    EXPECT_EQ(coeffs.has_value(), expect_ok);
    if (!coeffs) return;
    Zr acc = grp->zr_zero();
    for (const auto& [row, w] : *coeffs) {
      ASSERT_GE(row, 0);
      ASSERT_LT(row, m.rows());
      // Coefficients must only reference rows the user holds.
      EXPECT_TRUE(have.contains(m.row_attribute(row)));
      acc = acc + w * shares[row];
    }
    EXPECT_EQ(acc, s);
  }

  std::shared_ptr<const Group> grp;
  crypto::Drbg rng{std::string_view("matrix-test")};
};

TEST_F(MatrixTest, SingleAttribute) {
  const LsssMatrix m = LsssMatrix::from_policy(parse_policy("a@A"));
  EXPECT_EQ(m.rows(), 1);
  EXPECT_EQ(m.cols(), 1);
  expect_reconstructs(m, {{"a", "A"}}, true);
  expect_reconstructs(m, {{"b", "A"}}, false);
  expect_reconstructs(m, {}, false);
}

TEST_F(MatrixTest, SimpleAnd) {
  const LsssMatrix m = LsssMatrix::from_policy(parse_policy("a@A AND b@B"));
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 2);
  expect_reconstructs(m, {{"a", "A"}, {"b", "B"}}, true);
  expect_reconstructs(m, {{"a", "A"}}, false);
  expect_reconstructs(m, {{"b", "B"}}, false);
}

TEST_F(MatrixTest, SimpleOr) {
  const LsssMatrix m = LsssMatrix::from_policy(parse_policy("a@A OR b@B"));
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 1);
  expect_reconstructs(m, {{"a", "A"}}, true);
  expect_reconstructs(m, {{"b", "B"}}, true);
  expect_reconstructs(m, {{"c", "C"}}, false);
}

TEST_F(MatrixTest, WideAnd) {
  const LsssMatrix m =
      LsssMatrix::from_policy(parse_policy("a@A AND b@B AND c@C AND d@D"));
  EXPECT_EQ(m.rows(), 4);
  expect_reconstructs(m, {{"a", "A"}, {"b", "B"}, {"c", "C"}, {"d", "D"}}, true);
  expect_reconstructs(m, {{"a", "A"}, {"b", "B"}, {"c", "C"}}, false);
}

TEST_F(MatrixTest, ThresholdDirectModeKeepsRhoInjective) {
  // The default Vandermonde compilation gives one row per leaf — no
  // attribute repetition, so no reuse opt-in needed.
  const PolicyPtr p = parse_policy("2of(a@A, b@B, c@C)");
  const LsssMatrix m = LsssMatrix::from_policy(p);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);  // root column + (k-1) Vandermonde columns
  expect_reconstructs(m, {{"a", "A"}, {"b", "B"}}, true);
  expect_reconstructs(m, {{"b", "B"}, {"c", "C"}}, true);
  expect_reconstructs(m, {{"a", "A"}, {"c", "C"}}, true);
  expect_reconstructs(m, {{"a", "A"}}, false);
  expect_reconstructs(m, {{"c", "C"}}, false);
}

TEST_F(MatrixTest, ThresholdExpandModeRequiresReuseFlag) {
  // The OR-of-ANDs expansion repeats attributes, so the paper's
  // injective-rho rule rejects it unless reuse is explicitly allowed.
  const PolicyPtr p = parse_policy("2of(a@A, b@B, c@C)");
  EXPECT_THROW(LsssMatrix::from_policy(p, false, ThresholdMode::kExpand), PolicyError);
  const LsssMatrix m = LsssMatrix::from_policy(p, true, ThresholdMode::kExpand);
  EXPECT_EQ(m.rows(), 6);  // 3 combinations x 2 leaves
  expect_reconstructs(m, {{"a", "A"}, {"b", "B"}}, true);
  expect_reconstructs(m, {{"a", "A"}}, false);
}

TEST_F(MatrixTest, WideThresholdOnlyFeasibleDirect) {
  // 10-of-20 has C(20,10) = 184756 expansion terms — the expansion path
  // refuses, the direct path emits a 20 x 10 matrix.
  std::vector<PolicyPtr> kids;
  for (int i = 0; i < 20; ++i)
    kids.push_back(PolicyNode::attr("a" + std::to_string(i), "A"));
  const PolicyPtr p = PolicyNode::threshold(10, kids);
  EXPECT_THROW(LsssMatrix::from_policy(p, true, ThresholdMode::kExpand), PolicyError);

  const LsssMatrix m = LsssMatrix::from_policy(p);
  EXPECT_EQ(m.rows(), 20);
  EXPECT_EQ(m.cols(), 10);
  // Any 10 leaves reconstruct; any 9 do not.
  std::set<Attribute> have;
  for (int i = 0; i < 9; ++i) have.insert({"a" + std::to_string(2 * i), "A"});
  expect_reconstructs(m, have, false);
  have.insert({"a19", "A"});
  expect_reconstructs(m, have, true);
}

TEST_F(MatrixTest, NestedThresholdsDirect) {
  // Threshold over compound children, nested under other gates.
  const PolicyPtr p = parse_policy("x@X AND 2of(a@A AND b@B, c@C, d@D OR e@E)");
  const LsssMatrix m = LsssMatrix::from_policy(p);
  expect_reconstructs(m, {{"x", "X"}, {"a", "A"}, {"b", "B"}, {"c", "C"}}, true);
  expect_reconstructs(m, {{"x", "X"}, {"c", "C"}, {"e", "E"}}, true);
  expect_reconstructs(m, {{"x", "X"}, {"a", "A"}, {"c", "C"}}, false);  // AND half
  expect_reconstructs(m, {{"a", "A"}, {"b", "B"}, {"c", "C"}}, false);  // missing x
  expect_reconstructs(m, {{"x", "X"}, {"c", "C"}}, false);
}

TEST_F(MatrixTest, ThresholdOverflowGuard) {
  // Vandermonde powers n^{k-1} must fit 62 bits; a 40-of-80 gate
  // (80^39) must be rejected with a clear error rather than overflow.
  std::vector<PolicyPtr> kids;
  for (int i = 0; i < 80; ++i)
    kids.push_back(PolicyNode::attr("a" + std::to_string(i), "A"));
  const PolicyPtr p = PolicyNode::threshold(40, kids);
  EXPECT_THROW(LsssMatrix::from_policy(p), PolicyError);
}

TEST_F(MatrixTest, DuplicateAttributeRejectedByDefault) {
  EXPECT_THROW(LsssMatrix::from_policy(parse_policy("a@A OR (a@A AND b@B)")),
               PolicyError);
}

TEST_F(MatrixTest, RowAttributesMatchPolicyLeaves) {
  const PolicyPtr p = parse_policy("(x@A AND y@B) OR z@C");
  const LsssMatrix m = LsssMatrix::from_policy(p);
  ASSERT_EQ(m.rows(), 3);
  EXPECT_EQ(m.row_attribute(0).name, "x");
  EXPECT_EQ(m.row_attribute(1).name, "y");
  EXPECT_EQ(m.row_attribute(2).name, "z");
  EXPECT_EQ(m.policy_text(), p->to_string());
}

TEST_F(MatrixTest, ShareVectorFirstCoordinateIsSecret) {
  // Sharing with the full attribute set must always reconstruct.
  const LsssMatrix m = LsssMatrix::from_policy(
      parse_policy("(a@A AND b@B) OR (c@C AND d@D AND e@E)"));
  expect_reconstructs(m, {{"a", "A"}, {"b", "B"}}, true);
  expect_reconstructs(m, {{"c", "C"}, {"d", "D"}, {"e", "E"}}, true);
  expect_reconstructs(m, {{"a", "A"}, {"c", "C"}, {"d", "D"}}, false);
  expect_reconstructs(m, {{"b", "B"}, {"e", "E"}}, false);
}

// Property test: LSSS satisfiability must agree with boolean semantics on
// every subset of attributes, for a corpus of policies.
class MatrixAgreement : public ::testing::TestWithParam<const char*> {};

TEST_P(MatrixAgreement, MatchesBooleanSemanticsOnAllSubsets) {
  auto grp = Group::test_small();
  crypto::Drbg rng(std::string_view("agreement"));
  const PolicyPtr p = parse_policy(GetParam());

  // Collect distinct attributes.
  const std::vector<Attribute> all_leaves = p->leaves();
  std::set<Attribute> attr_set(all_leaves.begin(), all_leaves.end());
  std::vector<Attribute> attrs(attr_set.begin(), attr_set.end());
  ASSERT_LE(attrs.size(), 12u) << "test policy too wide for subset enumeration";

  // Both threshold compilation strategies must agree with the boolean
  // semantics on every subset.
  for (const ThresholdMode mode : {ThresholdMode::kDirect, ThresholdMode::kExpand}) {
    const LsssMatrix m = LsssMatrix::from_policy(p, /*allow_attribute_reuse=*/true, mode);
    for (uint32_t mask = 0; mask < (1u << attrs.size()); ++mask) {
      std::set<Attribute> have;
      for (size_t i = 0; i < attrs.size(); ++i)
        if (mask & (1u << i)) have.insert(attrs[i]);
      const bool boolean = p->satisfied_by(have);
      const auto coeffs = m.reconstruction(*grp, have);
      ASSERT_EQ(coeffs.has_value(), boolean)
          << "policy=" << GetParam() << " mask=" << mask
          << " mode=" << (mode == ThresholdMode::kDirect ? "direct" : "expand");
      // The Montgomery solver returns exactly the reference coefficients.
      {
        SCOPED_TRACE(std::string("policy=") + GetParam() + " mask=" + std::to_string(mask));
        expect_same_coefficients(coeffs, reference_reconstruction(m, *grp, have));
      }
      if (coeffs) {
        const Zr s = grp->zr_random(rng);
        const auto shares = m.share(*grp, s, rng);
        Zr acc = grp->zr_zero();
        for (const auto& [row, w] : *coeffs) acc = acc + w * shares[row];
        ASSERT_EQ(acc, s) << "policy=" << GetParam() << " mask=" << mask;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, MatrixAgreement,
    ::testing::Values(
        "a@A",
        "a@A AND b@B",
        "a@A OR b@B",
        "a@A AND b@B AND c@C",
        "a@A OR b@B OR c@C",
        "(a@A AND b@B) OR c@C",
        "(a@A OR b@B) AND c@C",
        "(a@A AND b@B) OR (c@C AND d@D)",
        "(a@A OR b@B) AND (c@C OR d@D)",
        "((a@A AND b@B) OR c@C) AND d@D",
        "a@A AND (b@B OR (c@C AND d@D))",
        "2of(a@A, b@B, c@C)",
        "3of(a@A, b@B, c@C, d@D)",
        "2of(a@A AND b@B, c@C, d@D)",
        "(x@X OR y@Y) AND 2of(a@A, b@B, c@C)",
        "((a@A AND b@B) OR (c@C AND d@D)) AND (e@E OR f@F)",
        "a@A AND b@A AND c@A AND d@A AND e@A AND f@A AND g@A",
        "a@A OR (b@B AND (c@C OR (d@D AND e@E)))"));

// The paper curve (160-bit r, 3 limbs): the read-wide policy (AND of 10
// over n_A = 2) and the right end of Fig. 3 (n_A = 10, l = 50).
TEST(MatrixPaperCurve, WideAndsMatchReference) {
  const auto grp = Group::pbc_a512();
  crypto::Drbg rng(std::string_view("matrix-paper-curve"));
  for (const auto& [n_auth, n_attr] : {std::pair{2, 5}, std::pair{10, 5}}) {
    SCOPED_TRACE("n_A=" + std::to_string(n_auth) + " l=" + std::to_string(n_auth * n_attr));
    const LsssMatrix m = LsssMatrix::from_policy(parse_policy(full_and_text(n_auth, n_attr)));
    ASSERT_EQ(m.rows(), n_auth * n_attr);
    std::set<Attribute> have(m.row_attributes().begin(), m.row_attributes().end());
    const auto coeffs = m.reconstruction(*grp, have);
    ASSERT_TRUE(coeffs.has_value());
    expect_same_coefficients(coeffs, reference_reconstruction(m, *grp, have));
    // An AND needs every row, each with w = 1 (one merge class per
    // first argument in the decrypt product).
    ASSERT_EQ(static_cast<int>(coeffs->size()), m.rows());
    for (const auto& [row, w] : *coeffs) EXPECT_EQ(w, grp->zr_one()) << "row " << row;
    const Zr s = grp->zr_random(rng);
    const auto shares = m.share(*grp, s, rng);
    Zr acc = grp->zr_zero();
    for (const auto& [row, w] : *coeffs) acc = acc + w * shares[row];
    EXPECT_EQ(acc, s);

    have.erase(m.row_attribute(m.rows() / 2));
    EXPECT_FALSE(m.reconstruction(*grp, have).has_value());
    EXPECT_FALSE(reference_reconstruction(m, *grp, have).has_value());
  }
}

// A wire-decoded matrix may carry INT64_MIN, whose int64 negation is
// undefined; share and reconstruction must treat it as -2^63 mod r.
// A 9-byte header may claim up to 10^5 × 10^5 entries; the decoder
// must refuse it from the input's length, not allocate 80 GB first.
TEST_F(MatrixTest, DimensionsBeyondTheInputAreRefusedBeforeAllocating) {
  Writer w;
  w.u32(100000);  // rows
  w.u32(100000);  // cols
  w.u64(0);
  Reader r(w.bytes());
  EXPECT_THROW(LsssMatrix::deserialize(r), WireError);
}

TEST_F(MatrixTest, Int64MinEntryFromTheWire) {
  Writer w;
  w.u32(1);  // rows
  w.u32(1);  // cols
  w.u64(static_cast<uint64_t>(INT64_MIN) + (uint64_t{1} << 63));  // biased encoding
  w.str("a");
  w.str("A");
  w.str("a@A");
  Reader r(w.bytes());
  const LsssMatrix m = LsssMatrix::deserialize(r);
  ASSERT_EQ(m.row(0)[0], INT64_MIN);

  const Bignum order = grp->order();
  const Zr entry =
      grp->zr_from_bignum(Bignum::mod_sub(Bignum(), Bignum::shl(Bignum::from_u64(1), 63), order));
  const Zr s = grp->zr_random(rng);
  const std::vector<Zr> shares = m.share(*grp, s, rng);
  ASSERT_EQ(shares.size(), 1u);
  EXPECT_EQ(shares[0], entry * s);

  const auto coeffs = m.reconstruction(*grp, {{"a", "A"}});
  ASSERT_TRUE(coeffs.has_value());
  ASSERT_EQ(coeffs->size(), 1u);
  EXPECT_EQ((*coeffs)[0].w.value(), math::reference::mod_inverse(entry.value(), order));
  expect_same_coefficients(coeffs, reference_reconstruction(m, *grp, {{"a", "A"}}));
  EXPECT_EQ((*coeffs)[0].w * shares[0], s);
}

TEST_F(MatrixTest, NullPolicyRejected) {
  EXPECT_THROW(LsssMatrix::from_policy(nullptr), PolicyError);
}

}  // namespace
}  // namespace maabe::lsss
