// Public pairing-group API used by the ABE schemes.
//
// A Group bundles a type-A parameter set with its contexts, a fixed
// generator g of the order-r subgroup, and the cached value e(g, g).
// Element types Zr (exponents mod r), G1 (curve points) and GT (target
// group) are cheap value types referencing their Group; the Group must
// outlive its elements (create it once per process, e.g. via the
// shared_ptr factories, and keep it alive).
//
// All serialization is fixed-width: |Zr| = r-bytes, |G1| = q-bytes + 1
// (compressed point), |GT| = 2 * q-bytes. These are the element sizes the
// paper's Tables II-IV count symbolically as |p|, |G|, |GT|.
//
// Thread-safety contract (relied on by engine::CryptoEngine): a fully
// constructed Group is immutable. Every const method — pair(), g_pow(),
// egg_pow(), hash_to_*, *_from_bytes, element arithmetic through the
// contexts — may be called concurrently from any number of threads
// without external synchronization. The only mutable state the pairing
// stack touches after construction lives in caller-owned values (the
// elements being produced) and in crypto::Drbg, which is NOT
// synchronized: methods taking a Drbg& (zr_random, g1_random, ...) are
// safe only if each thread uses its own rng instance.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "pairing/fixed_base.h"
#include "pairing/pairing.h"

namespace maabe::pairing {

class Group;

/// Exponent in Z_r (plain representation; arithmetic mod the group
/// order r). Storage and wire form are a plain Bignum residue; mul and
/// inverse run on the group's fixed-width Montgomery field over r
/// (Group::zr_field()), so Z_r has one arithmetic.
class Zr {
 public:
  Zr() = default;

  const math::Bignum& value() const { return v_; }
  const Group* group() const { return g_; }
  bool is_zero() const { return v_.is_zero(); }

  Zr add(const Zr& o) const;
  Zr sub(const Zr& o) const;
  Zr mul(const Zr& o) const;
  Zr neg() const;
  /// Multiplicative inverse mod r; throws MathError on zero.
  Zr inverse() const;

  friend Zr operator+(const Zr& a, const Zr& b) { return a.add(b); }
  friend Zr operator-(const Zr& a, const Zr& b) { return a.sub(b); }
  friend Zr operator*(const Zr& a, const Zr& b) { return a.mul(b); }
  friend bool operator==(const Zr& a, const Zr& b) { return a.v_ == b.v_; }
  friend bool operator!=(const Zr& a, const Zr& b) { return !(a == b); }

  Bytes to_bytes() const;

 private:
  friend class Group;
  Zr(const Group* g, math::Bignum v) : g_(g), v_(std::move(v)) {}

  const Group* g_ = nullptr;
  math::Bignum v_;
};

/// Point in the order-r subgroup of E(F_q) (written multiplicatively in
/// the paper: G1 "exponentiation" g^k is scalar multiplication here).
class G1 {
 public:
  G1() = default;

  bool is_identity() const { return pt_.inf; }

  G1 add(const G1& o) const;
  G1 neg() const;
  /// g^k — scalar multiplication by an exponent in Z_r.
  G1 mul(const Zr& k) const;
  /// True when the point lies in the order-r subgroup: r*P in Jacobian
  /// form has z = 0, with no affine conversion. Deserialized points are
  /// guaranteed on-curve but may sit in a cofactor coset; key-material
  /// decoders check them through Group::g1_in_subgroup_batch, which
  /// gives the same verdicts (see abe/serial.cpp).
  bool in_subgroup() const;

  friend G1 operator+(const G1& a, const G1& b) { return a.add(b); }
  friend G1 operator-(const G1& a, const G1& b) { return a.add(b.neg()); }
  friend G1 operator*(const G1& a, const Zr& k) { return a.mul(k); }
  friend bool operator==(const G1& a, const G1& b);
  friend bool operator!=(const G1& a, const G1& b) { return !(a == b); }

  Bytes to_bytes() const;
  /// Uncompressed encoding x || y || flag (2|q|+1 bytes). Twice the size
  /// of to_bytes() but decodable without a field square root — used for
  /// transient protocol messages (update keys / update infos) where
  /// decode speed matters more than the wire size counted in Table IV.
  Bytes to_bytes_uncompressed() const;

 private:
  friend class Group;
  G1(const Group* g, AffinePoint pt) : g_(g), pt_(std::move(pt)) {}

  const Group* g_ = nullptr;
  AffinePoint pt_;
};

/// Unreduced pairing value: the Miller-loop output in F_{q^2}, before
/// the final exponentiation. Produced by Group::miller() /
/// miller_with(); fold many with mul() (or raise one with pow()) and
/// map the product to GT with Group::miller_reduce() — ONE shared final
/// exponentiation. The final exponentiation is a group homomorphism and
/// all arithmetic is exact, so reduce(a * b) == reduce(a) * reduce(b)
/// bit for bit; this is the algebra behind the multi-pairing kernel.
class MillerVal {
 public:
  MillerVal() = default;

  /// True for the fold-neutral value (identity inputs produce it).
  bool is_one() const;

  MillerVal mul(const MillerVal& o) const;
  /// Full-field exponentiation (Miller values are generally NOT in the
  /// norm-1 subgroup; cyclotomic shortcuts do not apply before
  /// reduction). reduce(m.pow(k)) == reduce(m).pow(k).
  MillerVal pow(const Zr& k) const;

  friend MillerVal operator*(const MillerVal& a, const MillerVal& b) {
    return a.mul(b);
  }

  /// Raw F_{q^2} serialization — lets tests assert bit-level equality
  /// of unreduced values; not a wire format.
  Bytes to_bytes() const;

 private:
  friend class Group;
  MillerVal(const Group* g, Fp2 v) : g_(g), v_(std::move(v)) {}

  const Group* g_ = nullptr;
  Fp2 v_;
};

/// Element of the target group (order-r subgroup of F_{q^2}^*).
class GT {
 public:
  GT() = default;

  bool is_one() const;

  GT mul(const GT& o) const;
  GT div(const GT& o) const { return mul(o.inverse()); }
  /// Inverse via conjugation (valid in the norm-1 cyclotomic subgroup).
  GT inverse() const;
  GT pow(const Zr& k) const;
  /// True when the element lies in the order-r target subgroup.
  bool in_subgroup() const;

  friend GT operator*(const GT& a, const GT& b) { return a.mul(b); }
  friend GT operator/(const GT& a, const GT& b) { return a.div(b); }
  friend bool operator==(const GT& a, const GT& b);
  friend bool operator!=(const GT& a, const GT& b) { return !(a == b); }

  Bytes to_bytes() const;

 private:
  friend class Group;
  GT(const Group* g, Fp2 v) : g_(g), v_(std::move(v)) {}

  const Group* g_ = nullptr;
  Fp2 v_;
};

/// A signed scalar with a machine-word magnitude, k = neg ? -mag : mag:
/// the small exponents the multi-pairing kernel folds into G1.
struct SmallScalar {
  uint64_t mag = 1;
  bool neg = false;

  friend bool operator==(const SmallScalar&, const SmallScalar&) = default;
};

/// k * (p_1 + ... + p_n): one run of a G1 linear combination.
struct G1Run {
  SmallScalar k;
  std::vector<G1> pts;
};

/// Fewest live lanes that earn a pairing pass in Group::pair_batch. A
/// pass costs about 1.35 scalar pairings against a line table whatever
/// its live lanes (bench/pairing_micro `pair_pass_us` 287 us against
/// `miller_precomp_us` + `final_exp_us` 214 us on the paper curve, on a
/// 4-vCPU Xeon VM), so
/// two pairings already gain and a lone one stays scalar.
inline constexpr size_t kMinPairLanesPerPass = 2;
/// Fewest live lanes that earn a G1 pass in Group::g1_mul_batch_jac
/// (under g1_pow_batch and the engine's untabled multiplies). A pass of
/// 4-bit windows costs about 1.1 scalar multiplies whatever its live
/// lanes and scalars (bench/pairing_micro `g1_mixed_pass_us` 354 us and
/// `g1_pow_pass_us` 360 us against `g1_exp_us` 333 us on the paper
/// curve, on a 4-vCPU Xeon VM), so two points already gain and a lone
/// one stays scalar.
inline constexpr size_t kMinG1PowLanesPerPass = 2;
/// Fewest live lanes that earn a subgroup-check pass in
/// Group::g1_in_subgroup_batch. A pass by r - 1 (two non-zero windows,
/// so mostly the pass's 1P..15P and its doublings) costs about 1.1
/// scalar checks by r whatever its live lanes (`g1_subgroup_pass_us`
/// 237 us against `g1_subgroup_check_us` 220 us), so likewise from two
/// points on.
inline constexpr size_t kMinG1SubgroupLanesPerPass = 2;

class Group {
 public:
  /// The paper's setting: 512-bit base field, 160-bit order (PBC a.param).
  static std::shared_ptr<const Group> pbc_a512();
  /// Fast insecure parameters for tests (192-bit base field).
  static std::shared_ptr<const Group> test_small();
  static std::shared_ptr<const Group> create(const TypeAParams& params);

  explicit Group(const TypeAParams& params);

  const TypeAParams& params() const { return ctx_.params(); }
  const math::Bignum& order() const { return ctx_.params().r; }
  const PairingCtx& ctx() const { return ctx_; }
  /// Montgomery arithmetic mod r on fixed-width limbs (3 limbs for
  /// pbc_a512's 160-bit r): what Zr::mul / Zr::inverse and the LSSS
  /// reconstruction solver run on.
  const math::MontField& zr_field() const { return zr_field_; }

  // Serialized element sizes in bytes.
  size_t zr_size() const;
  size_t g1_size() const;
  size_t g1_uncompressed_size() const;
  size_t gt_size() const;

  // ---- Zr ----------------------------------------------------------
  Zr zr_zero() const { return Zr(this, {}); }
  Zr zr_one() const { return Zr(this, math::Bignum::from_u64(1)); }
  Zr zr_from_u64(uint64_t v) const;
  /// Reduces an arbitrary integer mod r.
  Zr zr_from_bignum(const math::Bignum& v) const;
  Zr zr_random(crypto::Drbg& rng) const;
  Zr zr_nonzero_random(crypto::Drbg& rng) const;
  Zr zr_from_bytes(ByteView data) const;
  /// The random oracle H: {0,1}* -> Z_r of the paper.
  Zr hash_to_zr(ByteView data) const;
  Zr hash_to_zr(std::string_view s) const;

  // ---- G1 ----------------------------------------------------------
  G1 g1_identity() const { return G1(this, AffinePoint::infinity()); }
  /// base * k for every base: the same bits as G1::mul on each.
  /// g1_normalize of g1_mul_batch_jac with k in every lane.
  std::vector<G1> g1_pow_batch(std::span<const G1> bases, const Zr& k) const;
  /// in_subgroup() of every point, the same verdicts. Every finite point
  /// is multiplied by r - 1 (2^159 + 2^107 on the paper curve: two
  /// non-zero 4-bit windows) through CurveCtx::mul_jac_batch, in passes
  /// of at least kMinG1SubgroupLanesPerPass, and accepted exactly when
  /// the product is -P, compared in Jacobian form (X = x*Z^2,
  /// Y = -y*Z^3) with no inversion. A multiply by r itself would end
  /// every subgroup lane at z = 0, which the lanes hand back. The
  /// identity passes.
  std::vector<bool> g1_in_subgroup_batch(std::span<const G1> pts) const;
  /// The fixed generator g (deterministically derived from the params).
  const G1& g() const { return generator_; }
  /// g^k via the precomputed window table — 4-6x faster than g().mul(k);
  /// use whenever the base is the generator (KeyGen, Encrypt hot paths).
  G1 g_pow(const Zr& k) const;
  G1 g1_random(crypto::Drbg& rng) const;
  /// Try-and-increment hash to the order-r subgroup (needed by the
  /// Lewko-Waters baseline's H: {0,1}* -> G).
  G1 hash_to_g1(ByteView data) const;
  G1 hash_to_g1(std::string_view s) const;
  /// Decodes one compressed point x || flag: g1_from_bytes_batch of one.
  G1 g1_from_bytes(ByteView data) const;
  /// Decodes compressed points as one batch: each encoding's length,
  /// flag, infinity form and x < q are checked in order, then every
  /// finite point's square root comes from one FpCtx::sqrt_candidates
  /// call, then each root is checked and signed in order. The same
  /// points, and for a single malformed encoding the same WireError, as
  /// g1_from_bytes on each; on-curve, not subgroup-checked.
  std::vector<G1> g1_from_bytes_batch(std::span<const ByteView> encodings) const;
  /// Accepts exactly the encodings g1_from_bytes_batch decodes, and
  /// throws the same WireError for the rest: the same format checks in
  /// the same order, then each finite point's x^3 + x by its Legendre
  /// symbol (MontField::legendre) instead of a square root. Decodes
  /// nothing.
  void g1_check_encodings(std::span<const ByteView> encodings) const;
  /// Decodes the x || y || flag form. Validates the curve equation
  /// (cheap) instead of re-deriving y by square root; like
  /// g1_from_bytes, the result is on-curve but not subgroup-checked.
  G1 g1_from_bytes_uncompressed(ByteView data) const;

  // ---- GT ----------------------------------------------------------
  GT gt_one() const { return GT(this, ctx_.fq2().one()); }
  /// e(g, g), cached at construction.
  const GT& gt_generator() const { return e_gg_; }
  /// e(g,g)^k via the precomputed window table.
  GT egg_pow(const Zr& k) const;
  /// Uniform random element of the order-r target subgroup (used as the
  /// KEM "message" whose hash becomes a content key): egg_pow of one
  /// zr_nonzero_random draw.
  GT gt_random(crypto::Drbg& rng) const;
  GT gt_from_bytes(ByteView data) const;

  /// The bilinear map e: G1 x G1 -> GT.
  GT pair(const G1& a, const G1& b) const;
  /// e(base, b) for every b, base being `pre`'s first argument (a table
  /// from this Group's pair_precompute): the same bits as pair on each,
  /// or pair's MathError. Passes of up to eight finite b run the Miller
  /// replay, the easy part and the hard part as lanes of the IFMA field
  /// (DESIGN.md §23) with the norms inverted in one batch; an identity
  /// b or base is 1 without a loop, and a lane whose Miller value is
  /// zero, a pass below kMinPairLanesPerPass and every pass on a CPU
  /// without the kernels run the scalar path.
  std::vector<GT> pair_batch(const PairingPrecomp& pre, std::span<const G1> bs) const;

  // ---- Multi-pairing kernel ----------------------------------------
  /// The fold-neutral Miller value (what an empty product reduces from).
  MillerVal miller_one() const { return MillerVal(this, ctx_.fq2().one()); }
  /// Miller loop only — no final exponentiation. Identity inputs yield
  /// the neutral value, so any term is safe to fold.
  MillerVal miller(const G1& a, const G1& b) const;
  /// Reduces a (folded) Miller value to GT: one final exponentiation.
  /// miller_reduce(miller(a, b)) == pair(a, b) bit for bit.
  GT miller_reduce(const MillerVal& f) const;

  /// The sum of each set of points, for merging pairing terms that share
  /// a first argument (e(a,b1)*e(a,b2) == e(a,b1+b2)). Each set is
  /// accumulated with Jacobian mixed additions and every sum goes to
  /// affine with ONE field inversion (Montgomery's trick). Identity
  /// entries add nothing; a set that cancels sums to the identity.
  /// Affine coordinates are canonical, so each sum has the same bits as
  /// a G1::add fold.
  std::vector<G1> g1_sums(const std::vector<std::vector<G1>>& sets) const;
  /// g1_sums generalized to small scalars: each combination is
  /// sum_runs k * (sum of the run's points). Each run is summed with
  /// mixed additions, scaled by its k in Jacobian form (double-and-add,
  /// then a negation for k < 0) and added to the combination; every
  /// combination goes to affine with ONE inversion. The result is the
  /// point itself, so its bits do not depend on how the terms were
  /// grouped into runs.
  std::vector<G1> g1_combinations(const std::vector<std::vector<G1Run>>& combos) const;

  /// Line-coefficient table for a fixed first pairing argument (the
  /// pairing analogue of g1_precompute). `base` may be the identity —
  /// evaluations then return the neutral value. The table references
  /// this Group's contexts and must not outlive it.
  std::unique_ptr<PairingPrecomp> pair_precompute(const G1& base) const;
  /// miller(base, b) through the precomputed table — ~2x faster, same
  /// bits.
  MillerVal miller_with(const PairingPrecomp& pre, const G1& b) const;

  // ---- Precomputation hooks (engine layer) -------------------------
  // Window tables for *variable* bases, used by engine::CryptoEngine's
  // multi-exponentiation cache for repeatedly-seen bases (PK_UID,
  // PK_{x,AID}, C', ...). The table references this Group's contexts and
  // must not outlive it. `base` must not be the identity.
  std::unique_ptr<G1FixedBase> g1_precompute(const G1& base) const;
  G1 g1_pow_with(const G1FixedBase& table, const Zr& k) const;

  // Batched G1 results (engine layer): g1_pow_with and G1::mul stopped
  // before their affine conversion, so a batch of results pays ONE
  // field inversion in g1_normalize instead of one per result. Affine
  // coordinates are canonical: g1_normalize({x_jac(...)}) has the same
  // bits as x(...).
  JacPoint g1_pow_with_jac(const G1FixedBase& table, const Zr& k) const;
  /// g1_pow_with_jac(*tables[i], ks[i]) for every i, the same residues.
  /// Passes of up to eight run the digit walk as lanes of the IFMA field
  /// (G1FixedBase::pow_jac_lanes; the tables may differ); k = 0, tables
  /// holding infinity, lanes that meet an exceptional addition (only
  /// possible outside the order-r subgroup), passes below
  /// kMinG1TableLanesPerPass and CPUs without the kernels run pow_jac.
  std::vector<JacPoint> g1_pow_with_batch_jac(std::span<const G1FixedBase* const> tables,
                                              std::span<const Zr> ks) const;
  /// The window table behind g_pow, for batches that walk it in lanes.
  const G1FixedBase& g_table() const { return *g_table_; }
  /// bases[i].mul(ks[i]) for every i before its affine conversion, the
  /// same points: CurveCtx::mul_jac_batch on the base field's lanes
  /// (null without the kernels, and on the test curve), so passes of up
  /// to eight finite bases, at least kMinG1PowLanesPerPass of them, run
  /// one fixed 4-bit window per lane with a scalar of its own.
  std::vector<JacPoint> g1_mul_batch_jac(std::span<const G1> bases,
                                         std::span<const Zr> ks) const;
  /// Every point to affine with one inversion (Montgomery's trick).
  std::vector<G1> g1_normalize(const std::vector<JacPoint>& pts) const;
  std::unique_ptr<GtFixedBase> gt_precompute(const GT& base) const;
  GT gt_pow_with(const GtFixedBase& table, const Zr& k) const;

  /// Process-unique id of this Group instance (monotonic counter).
  /// Lets caches keyed by Group* detect address reuse after destruction.
  uint64_t instance_id() const { return instance_id_; }

 private:
  friend class Zr;
  friend class G1;
  friend class GT;
  friend class MillerVal;

  /// The points' sum in Jacobian form (mixed additions; identity
  /// entries add nothing).
  JacPoint g1_sum_jac(const std::vector<G1>& pts) const;

  PairingCtx ctx_;
  math::MontField zr_field_;
  G1 generator_;
  GT e_gg_;
  std::unique_ptr<G1FixedBase> g_table_;
  std::unique_ptr<GtFixedBase> egg_table_;
  uint64_t instance_id_ = 0;
};

}  // namespace maabe::pairing
