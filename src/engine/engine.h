// Batched crypto-op engine — the layer every hot path submits group
// operations through.
//
// The paper's cost model is dominated by pairings and exponentiations
// (decrypt alone evaluates 2l + N_A pairings); a CryptoEngine turns
// those serial loops into batches executed on a fixed-size thread pool:
//
//   * pairing_product / pairing_power_product — the multi-pairing
//     kernel: by bilinearity, terms sharing a first argument merge into
//     one Miller loop, small exponents folded into their second
//     arguments (an AND decrypt's 2l + N_A terms run 2 loops) and each
//     full-size exponent keeping a class of its own; the loops run in
//     parallel (with fixed-argument line tables cached in the LRU),
//     unreduced values fold in class order, and the product pays one
//     shared final exponentiation.
//   * multi_exp_g1 / multi_exp_gt — batched variable-base
//     exponentiation with a per-Group LRU precomputation cache:
//     bases seen repeatedly across batches (the per-attribute
//     PK_{x,AID} in Encrypt, g^{1/beta} in KeyGen, authority blinds)
//     get a window table built once and reused, the same machinery
//     Group already uses for g and e(g,g). A G1 base counts one use
//     per batch, so a new user's PK_UID, raised to 1 + |S| exponents
//     by each authority's KeyGen, stays in 8-lane passes.
//   * g_pow_batch / egg_pow_batch — batches over the two fixed bases.
//   * base_pow_batch — one variable base raised to many exponents (an
//     epoch's UK1 in the owner's UpdateInfo pass), through a window
//     table scoped to the batch.
//   * pair_batch — the revoke's same-schedule run: many pairings
//     against one first argument (an epoch's UK1 against every slot's
//     C'), as 8-lane IFMA passes in Group. A revocation's key updates
//     (every receiving user's K_x to UK2; the owner's PK_x to UK2) are
//     uncached multi_exp_g1 batches that also carry UK1's subgroup check.
//   * parallel_for — generic data-parallel sweep (CloudServer uses it
//     to re-encrypt stored ciphertexts concurrently).
//
// Determinism guarantee: all group arithmetic is exact, every output
// slot is computed independently, and folds run in submission order on
// the calling thread — results are byte-identical to the serial path at
// any thread count. `threads == 1` (or MAABE_THREADS=1) bypasses the
// pool entirely and executes the legacy serial sequence inline.
//
// Thread count resolution: explicit constructor arg > set_threads() >
// MAABE_THREADS env var > std::thread::hardware_concurrency().
//
// The engine relies on Group's documented const-thread-safety (see
// pairing/group.h). Engine methods themselves are safe to call from
// multiple threads; batches are serialized on the pool.
//
// Accounting: EngineStats is the one record of crypto work. Group
// itself counts nothing, so the counts cover what is submitted here:
// every pairing the schemes evaluate and their batched
// exponentiations, but not a one-off g^k a scheme takes on Group
// directly. `pairings` counts submitted terms (the paper's 2l + N_A
// per decrypt, as Table I counts them); `miller_loops` counts the
// loops actually run, one per merged class. Each batch commits its
// counts once, to the engine's seqlock store and to the
// maabe_engine_* registry counters named in kEngineStatFields.
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <vector>

#include "pairing/group.h"

namespace maabe::engine {

/// Operation counters + wall time, surfaced to benches the same way
/// cloud::ChannelMeter surfaces wire bytes. Snapshot with
/// CryptoEngine::stats(); per-phase deltas via operator-.
struct EngineStats {
  uint64_t pairings = 0;   ///< e(a,b) terms submitted
  uint64_t g1_exps = 0;    ///< G1 exponentiations (fixed + variable base)
  uint64_t gt_exps = 0;    ///< GT/target-field exponentiations
  uint64_t miller_loops = 0;  ///< Miller loops actually evaluated (one per class)
  uint64_t final_exps = 0;    ///< final exponentiations actually paid
  uint64_t batches = 0;    ///< batch API calls
  uint64_t tasks = 0;      ///< parallel_for items processed
  uint64_t table_builds = 0;  ///< LRU window tables constructed
  uint64_t table_hits = 0;    ///< exponentiations served from a cached table
  uint64_t precomp_builds = 0;  ///< pairing line tables constructed
  uint64_t precomp_hits = 0;    ///< Miller loops served from a cached table
  uint64_t wall_ns = 0;    ///< wall time spent inside batch APIs

  EngineStats operator-(const EngineStats& earlier) const;
  EngineStats& operator+=(const EngineStats& o);
  double wall_ms() const { return static_cast<double>(wall_ns) / 1e6; }
};

/// The engine's counter set, declared once: each EngineStats field and
/// the registry counter the same seqlock commit bumps. Stats
/// arithmetic, the seqlock store, snapshots and the registry series
/// all iterate this table.
struct EngineStatField {
  uint64_t EngineStats::*field;
  const char* metric;
};
inline constexpr EngineStatField kEngineStatFields[] = {
    {&EngineStats::pairings, "maabe_engine_pairings_total"},
    {&EngineStats::g1_exps, "maabe_engine_g1_exps_total"},
    {&EngineStats::gt_exps, "maabe_engine_gt_exps_total"},
    {&EngineStats::miller_loops, "maabe_engine_miller_loops_total"},
    {&EngineStats::final_exps, "maabe_engine_final_exps_total"},
    {&EngineStats::batches, "maabe_engine_batches_total"},
    {&EngineStats::tasks, "maabe_engine_tasks_total"},
    {&EngineStats::table_builds, "maabe_engine_table_builds_total"},
    {&EngineStats::table_hits, "maabe_engine_table_hits_total"},
    {&EngineStats::precomp_builds, "maabe_engine_precomp_builds_total"},
    {&EngineStats::precomp_hits, "maabe_engine_precomp_hits_total"},
    {&EngineStats::wall_ns, "maabe_engine_batch_wall_ns_total"},
};
inline constexpr size_t kEngineStatCount = std::size(kEngineStatFields);

class CryptoEngine {
 public:
  /// `threads == 0` resolves via MAABE_THREADS / hardware_concurrency.
  /// The Group must outlive the engine.
  explicit CryptoEngine(const pairing::Group& grp, int threads = 0);
  ~CryptoEngine();

  CryptoEngine(const CryptoEngine&) = delete;
  CryptoEngine& operator=(const CryptoEngine&) = delete;

  /// The process-wide engine for `grp`, created on first use with the
  /// default thread count. Detects Group address reuse via
  /// Group::instance_id(). Engines live for the process lifetime.
  static CryptoEngine& for_group(const pairing::Group& grp);

  /// MAABE_THREADS env var, else hardware_concurrency, min 1. A value
  /// set with set_default_threads() overrides both (CLI --threads).
  static int default_threads();
  /// Override the default for engines created after this call;
  /// `0` restores env/hardware resolution.
  static void set_default_threads(int threads);

  int threads() const { return threads_; }
  /// Resize the pool (joins and respawns workers). `0` = default.
  void set_threads(int threads);

  // ---- Batched operations ------------------------------------------
  struct PairTerm {
    pairing::G1 a, b;
  };
  struct G1Term {
    pairing::G1 base;
    pairing::Zr exp;
  };
  struct GtTerm {
    pairing::GT base;
    pairing::Zr exp;
  };

  /// prod_i e(a_i, b_i) through the multi-pairing kernel below, with no
  /// exponents (classes are keyed by first argument alone).
  pairing::GT pairing_product(const std::vector<PairTerm>& terms);
  /// prod_i e(a_i, b_i)^{e_i}. The live terms sort into classes in
  /// first-appearance order. An exponent with a signed representative
  /// k, |k| < 2^64, is small: the term joins a_i's folded class as
  /// k*b_i (e(a,b)^e == e(a, k*b) exactly in GT for a in the order-r
  /// subgroup). Any other exponent keys a class by (a_i, e_i), whose
  /// second arguments are summed and whose Miller value is raised to
  /// e_i. The rule reads the exponent only, so counts repeat exactly.
  /// Each class runs ONE Miller loop; Group::g1_combinations forms
  /// every class's second argument and takes them all to affine with
  /// one batch inversion. The loops run in parallel (a class's first
  /// argument touches the LRU's line tables once, counting one use per
  /// term, so merging does not delay a table's promotion), full-size
  /// exponents apply to the unreduced values (runs of classes with
  /// equal adjacent exponents are raised once), and the product pays
  /// ONE final exponentiation.
  /// Identity terms, zero exponents and classes whose sum cancels are
  /// skipped — each is a factor of 1, and a degenerate Miller value
  /// must never reach the shared reduction; a product with nothing left
  /// returns gt_one() with no final exponentiation. Byte-identical to
  /// the serial pair-then-pow fold at any thread count for subgroup
  /// inputs. Requires exps.size() == terms.size(). This is the shape of
  /// every ABE decrypt.
  pairing::GT pairing_power_product(const std::vector<PairTerm>& terms,
                                    const std::vector<pairing::Zr>& exps);
  /// e(a, b_i) for every b_i, with ONE LRU lookup for a's line table:
  /// Group::pair_batch over chunks of eight, fanned across the pool.
  /// Counted as single pairings: every b_i a pairing, every finite pair
  /// one Miller loop and one final exponentiation, and a precomp hit for
  /// each that a run of batches of one would have served from the
  /// table. Without a table (a first argument seen too rarely) each pair
  /// runs Group::pair. Same bits as Group::pair on each.
  std::vector<pairing::GT> pair_batch(const pairing::G1& a, const std::vector<pairing::G1>& bs);
  /// Forces the line table for `base` to exist in the LRU (epoch
  /// warm-up: build once before fanning slots across the pool).
  void warm_pair_precomp(const pairing::G1& base);

  /// base_i ^ exp_i for variable bases. A term whose base is the
  /// group's g walks Group::g_table() and never enters the LRU, counted
  /// as g_pow_batch counts it (a g1_exp and a task, no table hit). Each
  /// other distinct base counts one use of its LRU entry per batch; from
  /// the entry's kBuildThreshold-th batch on (4), or at once for a base
  /// with kBatchTableThreshold or more terms in the batch (8), its terms
  /// walk a cached window table. Every other term runs in
  /// Group::g1_mul_batch_jac's 8-lane passes, one scalar per lane.
  /// `cache_bases = false` skips the LRU entirely — pass it when the
  /// bases are one-offs (a key's K_x in an update) so they don't evict
  /// hot tables. The walks of every table, g's included, share chunks of
  /// eight, and the results stay Jacobian until the whole batch goes to
  /// affine with one inversion (Group::g1_normalize).
  std::vector<pairing::G1> multi_exp_g1(const std::vector<G1Term>& terms,
                                        bool cache_bases = true);
  std::vector<pairing::GT> multi_exp_gt(const std::vector<GtTerm>& terms,
                                        bool cache_bases = true);

  /// g ^ exp_i / e(g,g) ^ exp_i via the Group's fixed-base tables;
  /// g_pow_batch is multi_exp_g1's path on terms whose base is g, under
  /// its own span and histogram.
  std::vector<pairing::G1> g_pow_batch(const std::vector<pairing::Zr>& exps);
  std::vector<pairing::GT> egg_pow_batch(const std::vector<pairing::Zr>& exps);
  /// base ^ exp_i for one base shared by the whole batch. From
  /// kBatchTableThreshold exponents on (8), the batch builds a window
  /// table for `base` (one table build, every exponent a table hit) and
  /// drops it on return: the base is a one-off per call (an epoch's
  /// UK1), so it never enters the LRU. Below that count, 8-lane passes
  /// of `base` against its exponents (Group::g1_mul_batch_jac). One
  /// inversion normalizes the batch.
  std::vector<pairing::G1> base_pow_batch(const pairing::G1& base,
                                          const std::vector<pairing::Zr>& exps);
  /// Runs fn(0..n-1), work-stealing across the pool; blocks until all
  /// items finish. Exceptions from fn are rethrown on the caller (first
  /// one wins), and once one item has thrown the remaining unstarted
  /// items are ABANDONED — a failed sweep is neither all nor nothing.
  /// Callers needing failure atomicity must write into staging copies
  /// and commit only after parallel_for returns (the contract
  /// CloudServer::reencrypt's epoch protocol builds on). The pool stays
  /// usable after a throwing sweep. Reentrant calls from inside a
  /// worker run inline.
  void parallel_for(size_t n, const std::function<void(size_t)>& fn);

  // ---- Accounting --------------------------------------------------
  /// Coherent snapshot: every batch commits its counters, wall time and
  /// batch count as one atomic unit (seqlock), so a snapshot taken
  /// while batches run never shows a half-recorded batch (e.g. its
  /// pairings without its wall_ns). The same deltas feed the global
  /// telemetry::MetricsRegistry under maabe_engine_* names.
  EngineStats stats() const;
  /// Entries in the variable-base LRU (window and line tables share
  /// one entry per base).
  size_t cached_bases() const;

 private:
  struct Pool;
  struct LruCache;
  struct StatCells;  // seqlock-guarded per-engine stat store (engine.cpp)
  class BatchScope;  // RAII per-batch delta accumulator (engine.cpp)

  void ensure_pool();
  /// multi_exp_g1's work, counted into `scope`.
  std::vector<pairing::G1> exp_g1(BatchScope& scope, const std::vector<G1Term>& terms,
                                  bool cache_bases);
  /// parallel_for's dispatch without the task accounting — batch APIs
  /// fold their item count into the batch's atomic stat commit instead.
  void run_items(size_t n, const std::function<void(size_t)>& fn);
  /// Applies a delta to the per-engine seqlock store and adds it to the
  /// registry counters of kEngineStatFields.
  void commit_stats(const EngineStats& delta);

  const pairing::Group* grp_;
  int threads_;
  std::unique_ptr<Pool> pool_;        // created lazily; null when threads_ == 1
  std::unique_ptr<LruCache> cache_;   // variable-base window tables
  std::unique_ptr<StatCells> stat_cells_;
  mutable std::mutex mu_;             // guards pool_ resize
};

}  // namespace maabe::engine
