#include "lsss/matrix.h"

#include <algorithm>

#include "common/errors.h"

namespace maabe::lsss {

using math::FieldElem;
using math::MontField;
using pairing::Group;
using pairing::Zr;

namespace {

// Guarded power for Vandermonde threshold columns.
int64_t checked_pow(int64_t base, int exp) {
  __int128 acc = 1;
  for (int i = 0; i < exp; ++i) {
    acc *= base;
    if (acc > (__int128(1) << 62))
      throw PolicyError("lsss: threshold gate too wide (Vandermonde power overflow)");
  }
  return static_cast<int64_t>(acc);
}

// Policy-tree -> matrix conversion state (see matrix.h for the rules).
struct Converter {
  std::vector<std::vector<int64_t>> rows;
  std::vector<Attribute> attrs;
  int counter = 1;

  void walk(const PolicyPtr& node, std::vector<int64_t> vec) {
    switch (node->kind()) {
      case PolicyNode::Kind::kAttr:
        rows.push_back(std::move(vec));
        attrs.push_back(node->attribute());
        return;
      case PolicyNode::Kind::kOr:
        for (const auto& c : node->children()) walk(c, vec);
        return;
      case PolicyNode::Kind::kAnd: {
        // n-ary AND folds right: AND(c1, ..., cn) = AND(c1, AND(c2, ...)).
        // Each binary AND appends one column.
        const auto& ch = node->children();
        std::vector<int64_t> left = vec;
        for (size_t i = 0; i + 1 < ch.size(); ++i) {
          left.resize(counter, 0);
          left.push_back(1);
          std::vector<int64_t> right(counter, 0);
          right.push_back(-1);
          ++counter;
          walk(ch[i], left);
          left = std::move(right);
        }
        walk(ch.back(), left);
        return;
      }
      case PolicyNode::Kind::kThreshold: {
        // Vandermonde insertion: child i gets (v, x_i, ..., x_i^{k-1}).
        const auto& ch = node->children();
        const int k = node->threshold_k();
        const int base_col = counter;
        counter += k - 1;
        for (size_t i = 0; i < ch.size(); ++i) {
          std::vector<int64_t> child = vec;
          child.resize(base_col, 0);
          child.resize(base_col + k - 1, 0);
          const int64_t x = static_cast<int64_t>(i) + 1;
          for (int j = 1; j <= k - 1; ++j) child[base_col + j - 1] = checked_pow(x, j);
          walk(ch[i], std::move(child));
        }
        return;
      }
    }
    throw PolicyError("lsss: corrupt node kind");
  }
};

// |e| without signed overflow: a wire-decoded entry can be INT64_MIN,
// whose negation does not fit an int64.
uint64_t magnitude(int64_t e) {
  return e >= 0 ? static_cast<uint64_t>(e) : 0 - static_cast<uint64_t>(e);
}

Zr entry_to_zr(const Group& grp, int64_t e) {
  const Zr m = grp.zr_from_u64(magnitude(e));
  return e >= 0 ? m : m.neg();
}

// e mod r in Montgomery form. Compiled matrices are almost all 0 and +-1.
FieldElem entry_to_mont(const MontField& f, int64_t e) {
  if (e == 0) return FieldElem();
  if (e == 1) return f.one();
  if (e == -1) return f.neg(f.one());
  uint64_t v = magnitude(e);
  if (f.limbs() == 1) v %= f.modulus().limb(0);  // to_mont wants v < r
  const FieldElem m = f.to_mont(FieldElem::from_u64(v));
  return e >= 0 ? m : f.neg(m);
}

}  // namespace

LsssMatrix LsssMatrix::from_policy(const PolicyPtr& policy, bool allow_attribute_reuse,
                                   ThresholdMode mode) {
  if (!policy) throw PolicyError("lsss: null policy");
  const PolicyPtr compiled =
      mode == ThresholdMode::kExpand ? expand_thresholds(policy) : policy;

  Converter conv;
  conv.walk(compiled, std::vector<int64_t>{1});

  LsssMatrix out;
  out.width_ = conv.counter;
  out.matrix_ = std::move(conv.rows);
  out.row_attrs_ = std::move(conv.attrs);
  out.policy_text_ = policy->to_string();
  for (auto& row : out.matrix_) row.resize(out.width_, 0);

  if (!allow_attribute_reuse) {
    std::set<Attribute> seen;
    for (const auto& a : out.row_attrs_) {
      if (!seen.insert(a).second)
        throw PolicyError("lsss: attribute '" + a.qualified() +
                          "' appears more than once; the scheme requires an "
                          "injective row labeling (pass allow_attribute_reuse "
                          "to override)");
    }
  }
  return out;
}

void LsssMatrix::serialize(Writer& w) const {
  w.u32(static_cast<uint32_t>(matrix_.size()));
  w.u32(static_cast<uint32_t>(width_));
  for (const auto& row : matrix_) {
    for (int64_t e : row) {
      // Zigzag-style bias keeps the encoding sign-safe and fixed width.
      w.u64(static_cast<uint64_t>(e) + (uint64_t{1} << 63));
    }
  }
  for (const auto& a : row_attrs_) {
    w.str(a.name);
    w.str(a.aid);
  }
  w.str(policy_text_);
}

LsssMatrix LsssMatrix::deserialize(Reader& r) {
  LsssMatrix out;
  const uint32_t rows = r.u32();
  const uint32_t cols = r.u32();
  if (rows == 0 || cols == 0 || rows > 100000 || cols > 100000)
    throw WireError("lsss: implausible matrix dimensions");
  // Each entry is 8 wire bytes: refuse a header that asks for more
  // entries than the input holds before allocating them.
  if (uint64_t{rows} * cols > r.remaining() / 8) throw WireError("wire: truncated input");
  out.width_ = static_cast<int>(cols);
  out.matrix_.assign(rows, std::vector<int64_t>(cols, 0));
  for (auto& row : out.matrix_) {
    for (auto& e : row)
      e = static_cast<int64_t>(r.u64() - (uint64_t{1} << 63));
  }
  out.row_attrs_.reserve(rows);
  for (uint32_t i = 0; i < rows; ++i) {
    Attribute a;
    a.name = r.str();
    a.aid = r.str();
    if (a.name.empty() || a.aid.empty()) throw WireError("lsss: empty attribute");
    out.row_attrs_.push_back(std::move(a));
  }
  out.policy_text_ = r.str();
  return out;
}

std::vector<Zr> LsssMatrix::share(const Group& grp, const Zr& s, crypto::Drbg& rng) const {
  // v = (s, y_2, ..., y_n).
  std::vector<Zr> v;
  v.reserve(width_);
  v.push_back(s);
  for (int i = 1; i < width_; ++i) v.push_back(grp.zr_random(rng));

  std::vector<Zr> shares;
  shares.reserve(matrix_.size());
  for (const auto& row : matrix_) {
    Zr acc = grp.zr_zero();
    for (int j = 0; j < width_; ++j) {
      if (row[j] == 0) continue;
      acc = acc + entry_to_zr(grp, row[j]) * v[j];
    }
    shares.push_back(acc);
  }
  return shares;
}

std::optional<std::vector<ReconCoeff>> LsssMatrix::reconstruction(
    const Group& grp, const std::set<Attribute>& have) const {
  // Select the rows the caller holds.
  std::vector<int> selected;
  for (int i = 0; i < rows(); ++i) {
    if (have.contains(row_attrs_[i])) selected.push_back(i);
  }
  if (selected.empty()) return std::nullopt;

  // Solve  M_S^T w = e_1  over Z_r: an n x k system (n = width_,
  // k = |selected|) with augmented column e_1, on fixed-width residues
  // in Montgomery form. Zero tests and pivot choice do not depend on
  // the representation, so the coefficients are the canonical solution
  // whatever arithmetic computes them.
  const int n = width_;
  const int k = static_cast<int>(selected.size());
  const int stride = k + 1;
  const MontField& f = grp.zr_field();
  const FieldElem minus_one = f.neg(f.one());

  // a[row * stride + col]; col k is the augmented target.
  std::vector<FieldElem> a(static_cast<size_t>(n) * stride);
  const auto at = [&](int r, int c) -> FieldElem& { return a[r * stride + c]; };
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) at(i, j) = entry_to_mont(f, matrix_[selected[j]][i]);
  }
  at(0, k) = f.one();

  // Gaussian elimination (any nonzero pivot works in a field).
  std::vector<int> pivot_col_of_row(n, -1);
  int rank = 0;
  for (int col = 0; col < k && rank < n; ++col) {
    int piv = -1;
    for (int r = rank; r < n; ++r) {
      if (!at(r, col).is_zero()) {
        piv = r;
        break;
      }
    }
    if (piv < 0) continue;
    if (piv != rank) std::swap_ranges(&at(rank, 0), &at(rank, 0) + stride, &at(piv, 0));
    // Compiled matrices mostly pivot on +-1, which need no inversion.
    const FieldElem pivot = at(rank, col);
    if (pivot == minus_one) {
      for (int j = col; j <= k; ++j) at(rank, j) = f.neg(at(rank, j));
    } else if (pivot != f.one()) {
      const FieldElem inv = f.inv(pivot);
      for (int j = col; j <= k; ++j) at(rank, j) = f.mul(at(rank, j), inv);
    }
    for (int r = 0; r < n; ++r) {
      if (r == rank || at(r, col).is_zero()) continue;
      const FieldElem factor = at(r, col);
      for (int j = col; j <= k; ++j) {
        if (!at(rank, j).is_zero()) at(r, j) = f.sub(at(r, j), f.mul(factor, at(rank, j)));
      }
    }
    pivot_col_of_row[rank] = col;
    ++rank;
  }

  // Consistency: rows beyond the rank must have zero RHS.
  for (int r = rank; r < n; ++r) {
    if (!at(r, k).is_zero()) return std::nullopt;
  }

  // Back-substitute (already reduced): w[pivot_col] = rhs, free vars 0.
  std::vector<FieldElem> w(k);
  for (int r = 0; r < rank; ++r) w[pivot_col_of_row[r]] = at(r, k);

  std::vector<ReconCoeff> out;
  for (int j = 0; j < k; ++j) {
    if (w[j].is_zero()) continue;
    out.push_back({selected[j], grp.zr_from_bignum(f.from_mont(w[j]))});
  }
  if (out.empty()) {
    // Unreachable for a consistent nonzero target; defensive.
    return std::nullopt;
  }
  return out;
}

}  // namespace maabe::lsss
