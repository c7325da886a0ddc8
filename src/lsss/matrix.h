// Linear secret-sharing scheme (LSSS) matrices.
//
// Compiles an AND/OR/threshold policy tree into a share-generating
// matrix M (l x n over Z_r) with a row-labeling function rho.
//
// AND/OR gates use the Lewko-Waters conversion (EUROCRYPT 2011,
// Appendix G):
//   * the root starts with vector (1), counter c = 1;
//   * an OR node passes its vector to every child;
//   * an AND node gives child 1 the vector padded to length c with 1
//     appended, child 2 the vector (0,...,0,-1) of length c+1, c += 1.
//
// Threshold gates have two compilation strategies:
//   * kDirect (default): the Vandermonde insertion construction — a
//     k-of-n gate with parent vector v allocates k-1 fresh columns and
//     hands child i the vector (v, x_i, x_i^2, ..., x_i^{k-1}) with
//     x_i = i. Any k children solve sum w_i = 1, sum w_i x_i^j = 0
//     (Vandermonde); fewer than k cannot. Matrix stays l x O(c) and the
//     row labeling stays injective, so threshold policies remain within
//     the paper's stated rho restriction.
//   * kExpand: rewrite k-of-n into the OR of all C(n,k) AND-combinations
//     first (kept for comparison/ablation; necessarily repeats
//     attributes, requiring the rho-reuse opt-in).
//
// Shares of a secret s are lambda_i = M_i . v for v = (s, y_2..y_n);
// an attribute set S is authorized iff (1,0,...,0) lies in the span of
// the rows labeled by S, and the reconstruction coefficients w_i with
// sum w_i lambda_i = s come from Gaussian elimination over Z_r, run on
// the group's fixed-width Montgomery field (Group::zr_field()).
#pragma once

#include <cstdint>
#include <optional>

#include "common/wire.h"
#include "lsss/policy.h"
#include "pairing/group.h"

namespace maabe::lsss {

/// One reconstruction coefficient: w for the share at `row`.
struct ReconCoeff {
  int row;
  pairing::Zr w;
};

/// How threshold gates compile (see file comment).
enum class ThresholdMode { kDirect, kExpand };

class LsssMatrix {
 public:
  /// Compiles a policy. Entries are signed integers: {-1,0,1} from
  /// AND/OR gates, Vandermonde powers (up to n^{k-1}) from direct
  /// threshold gates. Throws PolicyError when rho would repeat an
  /// attribute and `allow_attribute_reuse` is false (the paper's
  /// injectivity rule), or when a threshold gate's powers would not fit
  /// an int64.
  static LsssMatrix from_policy(const PolicyPtr& policy,
                                bool allow_attribute_reuse = false,
                                ThresholdMode mode = ThresholdMode::kDirect);

  int rows() const { return static_cast<int>(matrix_.size()); }
  int cols() const { return width_; }
  const std::vector<int64_t>& row(int i) const { return matrix_[i]; }
  const Attribute& row_attribute(int i) const { return row_attrs_[i]; }
  const std::vector<Attribute>& row_attributes() const { return row_attrs_; }
  const std::string& policy_text() const { return policy_text_; }

  /// lambda_i = M_i . (s, y_2, ..., y_n) with fresh random y's.
  std::vector<pairing::Zr> share(const pairing::Group& grp, const pairing::Zr& s,
                                 crypto::Drbg& rng) const;

  /// Reconstruction coefficients over the rows whose attribute is in
  /// `have`; nullopt when `have` does not satisfy the access structure.
  /// Rows with zero coefficient are omitted.
  std::optional<std::vector<ReconCoeff>> reconstruction(
      const pairing::Group& grp, const std::set<Attribute>& have) const;

  bool satisfiable(const pairing::Group& grp, const std::set<Attribute>& have) const {
    return reconstruction(grp, have).has_value();
  }

  /// Wire format: explicit matrix + row labels + policy text (no
  /// re-parsing on load, so ciphertexts stay self-contained).
  void serialize(Writer& w) const;
  static LsssMatrix deserialize(Reader& r);

 private:
  std::vector<std::vector<int64_t>> matrix_;
  std::vector<Attribute> row_attrs_;
  int width_ = 0;
  std::string policy_text_;
};

}  // namespace maabe::lsss
