#include "engine/engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <list>
#include <map>
#include <optional>
#include <thread>

#include "common/errors.h"
#include "math/field_kernels.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace maabe::engine {

using pairing::G1;
using pairing::Group;
using pairing::GT;
using pairing::Zr;

namespace {

// Set inside pool workers so reentrant parallel_for calls run inline
// instead of deadlocking on the (busy) pool.
thread_local bool tl_in_worker = false;

std::atomic<int> g_default_override{0};

/// The terms of one base in one batch that earn a window table at once
/// (base_pow_batch's batch-scoped table, multi_exp_g1's cached one): the
/// break-even of a table used once against scalar multiplies, its build
/// cost over the saving per exponent, pairing.g1_table_build_ms /
/// (g1_exp_us - g1_exp_table_us). That is 3.5 (lane-built rows) to 6.1
/// (scalar rows) on pbc_a512 (bench/pairing_micro on a 4-vCPU Xeon VM,
/// DESIGN.md section 26), so 8 holds on CPUs without IFMA and on the
/// test curve. Against 8-lane passes (`g1_mixed_pass_us` / 8 against
/// `g1_table_pass_us` / 8) a table used once only pays from about 25-30
/// exponents; the constant stays one number for every CPU, so that the
/// engine's table counts do not depend on the host.
/// The LRU's kBuildThreshold is lower because its tables are reused.
constexpr size_t kBatchTableThreshold = 8;

/// The fold rule, decided from the exponent alone so that the engine's
/// counts repeat exactly: the k with k == e (mod r) and a magnitude
/// below 2^64, if there is one. e(a,b)^e == e(a, k*b) exactly in GT for
/// a in the order-r subgroup; a full-size exponent (a threshold
/// policy's Lagrange fraction) gets nothing, since a 160-bit G1
/// multiply costs more than the Miller loop and GT power it would save.
std::optional<pairing::SmallScalar> small_exponent(const Zr& e, const math::Bignum& r) {
  const math::Bignum& v = e.value();
  if (v.bit_length() <= 64) return pairing::SmallScalar{v.to_u64(), false};
  const math::Bignum neg = math::Bignum::sub(r, v);
  if (neg.bit_length() <= 64) return pairing::SmallScalar{neg.to_u64(), true};
  return std::nullopt;
}

/// Registry handles for the engine's global counters/histograms,
/// interned once (the registry returns process-lifetime references).
/// `totals[i]` is the counter of kEngineStatFields[i].
struct EngineMetrics {
  telemetry::Histogram& pair_batch_ns;
  telemetry::Histogram& multi_exp_g1_ns;
  telemetry::Histogram& multi_exp_gt_ns;
  telemetry::Histogram& g_pow_batch_ns;
  telemetry::Histogram& egg_pow_batch_ns;
  telemetry::Histogram& base_pow_batch_ns;
  std::array<telemetry::Counter*, kEngineStatCount> totals{};

  static EngineMetrics& get() {
    static EngineMetrics* m = [] {
      auto& reg = telemetry::MetricsRegistry::global();
      auto* em = new EngineMetrics{
          reg.histogram("maabe_engine_pair_batch_ns"),
          reg.histogram("maabe_engine_multi_exp_g1_ns"),
          reg.histogram("maabe_engine_multi_exp_gt_ns"),
          reg.histogram("maabe_engine_g_pow_batch_ns"),
          reg.histogram("maabe_engine_egg_pow_batch_ns"),
          reg.histogram("maabe_engine_base_pow_batch_ns"),
      };
      for (size_t i = 0; i < kEngineStatCount; ++i)
        em->totals[i] = &reg.counter(kEngineStatFields[i].metric);
      return em;
    }();
    return *m;
  }
};

// Interned at load time, so every process that links the engine lists
// the whole maabe_engine_* family, zeros included, even when it exits
// before its first batch (a CLI command that fails early).
[[maybe_unused]] const EngineMetrics& g_interned_at_load = EngineMetrics::get();

}  // namespace

EngineStats EngineStats::operator-(const EngineStats& e) const {
  EngineStats d;
  for (const EngineStatField& f : kEngineStatFields) d.*f.field = this->*f.field - e.*f.field;
  return d;
}

EngineStats& EngineStats::operator+=(const EngineStats& o) {
  for (const EngineStatField& f : kEngineStatFields) this->*f.field += o.*f.field;
  return *this;
}

// ---------------------------------------------------------------- Pool --

struct CryptoEngine::Pool {
  explicit Pool(int workers) {
    threads.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i) threads.emplace_back([this] { worker(); });
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mu);
      stop = true;
    }
    cv_work.notify_all();
    for (auto& t : threads) t.join();
  }

  /// Runs fn over [0, total); the caller participates alongside the
  /// workers. One job at a time (job_mu); blocks until every index is
  /// done, then rethrows the first captured exception, if any.
  void run(size_t job_total, const std::function<void(size_t)>& job_fn) {
    std::lock_guard<std::mutex> job_lk(job_mu);
    {
      std::lock_guard<std::mutex> lk(mu);
      fn = &job_fn;
      total = job_total;
      next.store(0, std::memory_order_relaxed);
      error = nullptr;
      pending = threads.size();
      ++job_id;
    }
    cv_work.notify_all();
    process();
    {
      std::unique_lock<std::mutex> lk(mu);
      cv_done.wait(lk, [&] { return pending == 0; });
      fn = nullptr;
    }
    if (error) std::rethrow_exception(error);
  }

  void process() {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (!error) error = std::current_exception();
        next.store(total, std::memory_order_relaxed);  // abandon the rest
      }
    }
  }

  void worker() {
    tl_in_worker = true;
    uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu);
        cv_work.wait(lk, [&] { return stop || job_id != seen; });
        if (stop) return;
        seen = job_id;
      }
      process();
      {
        std::lock_guard<std::mutex> lk(mu);
        if (--pending == 0) cv_done.notify_all();
      }
    }
  }

  std::mutex job_mu;  // serializes run() callers
  std::mutex mu;
  std::condition_variable cv_work, cv_done;
  std::vector<std::thread> threads;
  const std::function<void(size_t)>* fn = nullptr;
  size_t total = 0;
  std::atomic<size_t> next{0};
  size_t pending = 0;
  uint64_t job_id = 0;
  std::exception_ptr error;
  bool stop = false;
};

// ------------------------------------------------------------ LruCache --

/// LRU of window tables for variable bases, keyed by the base's
/// serialized form. A base only pays for table construction after it has
/// been used kBuildThreshold times (break-even vs plain
/// exponentiation); until then the entry just tracks its use count. A
/// G1 base counts one use per multi_exp_g1 batch; a first argument
/// counts one per pairing term, a GT base one per term.
struct CryptoEngine::LruCache {
  static constexpr size_t kCapacity = 64;
  static constexpr uint64_t kBuildThreshold = 4;

  struct Node {
    Bytes key;
    uint64_t uses = 0;
    std::shared_ptr<const pairing::G1FixedBase> g1;
    std::shared_ptr<const pairing::GtFixedBase> gt;
    std::shared_ptr<const pairing::PairingPrecomp> pair;  // line table
  };
  using List = std::list<Node>;

  std::mutex mu;
  List order;  // front = most recently used
  std::map<Bytes, List::iterator> index;

  /// Adds `uses` to the entry for `key` (inserting/evicting as needed)
  /// and returns it, moved to the front.
  Node& touch(const Bytes& key, uint64_t uses) {
    auto it = index.find(key);
    if (it != index.end()) {
      order.splice(order.begin(), order, it->second);
    } else {
      order.push_front(Node{key, 0, nullptr, nullptr, nullptr});
      index[key] = order.begin();
      if (index.size() > kCapacity) {
        index.erase(order.back().key);
        order.pop_back();
      }
    }
    order.front().uses += uses;
    return order.front();
  }

  /// The table in `slot` of the entry for `key`: touches the entry
  /// with `uses` and builds the table with `build` once the entry has
  /// been used kBuildThreshold times; `warm` builds it now (the caller
  /// announced a run of uses). Counts the build into `builds`, and into
  /// `hits` the `served` operations the table runs for this call (0 for
  /// a warm-up, which runs none). When `uses` counts those same
  /// operations (uses == served, as in a pair_batch), a table built by
  /// this call counts only the ones a run of single uses would have
  /// served, from the use that reached kBuildThreshold on. Caller holds
  /// `mu`.
  template <class T, class Build>
  std::shared_ptr<const T> table(std::shared_ptr<const T> Node::*slot,
                                 const Bytes& key, uint64_t uses, bool warm,
                                 uint64_t& builds, uint64_t& hits, const Build& build,
                                 uint64_t served = 1) {
    Node& node = touch(key, uses);
    if (warm && node.uses < kBuildThreshold) node.uses = kBuildThreshold;
    std::shared_ptr<const T>& t = node.*slot;
    if (!t && node.uses >= kBuildThreshold) {
      t = build();
      ++builds;
      if (uses == served) served = std::min(served, node.uses - kBuildThreshold + 1);
    }
    if (t) hits += served;
    return t;
  }

  /// The line table for first argument `a`; `uses`, `warm` and `served`
  /// as for table().
  std::shared_ptr<const pairing::PairingPrecomp> line_table(const Group& grp,
                                                           const G1& a, uint64_t uses,
                                                           bool warm, EngineStats& d,
                                                           uint64_t served = 1) {
    return table(&Node::pair, a.to_bytes(), uses, warm, d.precomp_builds,
                 d.precomp_hits, [&] { return grp.pair_precompute(a); }, served);
  }
};

// --------------------------------------------------------- CryptoEngine --

// ----------------------------------------------------------- StatCells --

/// Per-engine stat store behind a seqlock: commit_stats() bumps the
/// sequence to odd, applies every field, then bumps back to even;
/// stats() retries until it reads the same even sequence on both sides
/// of the field loads. All accesses are atomics (TSan-clean); the
/// write mutex serializes committers so the odd window stays short.
/// `cells[i]` holds kEngineStatFields[i].
struct CryptoEngine::StatCells {
  std::mutex write_mu;
  std::atomic<uint64_t> seq{0};
  std::array<std::atomic<uint64_t>, kEngineStatCount> cells{};
};

void CryptoEngine::commit_stats(const EngineStats& d) {
  StatCells& c = *stat_cells_;
  {
    std::lock_guard<std::mutex> lk(c.write_mu);
    const uint64_t s = c.seq.load(std::memory_order_relaxed);
    c.seq.store(s + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    for (size_t i = 0; i < kEngineStatCount; ++i) {
      std::atomic<uint64_t>& f = c.cells[i];
      f.store(f.load(std::memory_order_relaxed) + d.*kEngineStatFields[i].field,
              std::memory_order_relaxed);
    }
    c.seq.store(s + 2, std::memory_order_release);
  }
  const EngineMetrics& m = EngineMetrics::get();
  for (size_t i = 0; i < kEngineStatCount; ++i)
    if (const uint64_t v = d.*kEngineStatFields[i].field) m.totals[i]->add(v);
}

// ------------------------------------------------------------ BatchScope --

/// Accumulates one batch's stat delta and commits it atomically on
/// scope exit, alongside the per-batch latency histogram observation
/// and (when tracing is on) a span child of the caller's current span.
class CryptoEngine::BatchScope {
 public:
  BatchScope(CryptoEngine& eng, telemetry::Histogram& hist, const char* span_name)
      : eng_(eng), hist_(hist),
        span_(telemetry::Tracer::global().start_span(span_name)),
        start_(std::chrono::steady_clock::now()) {}

  ~BatchScope() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    delta.batches += 1;
    delta.wall_ns += static_cast<uint64_t>(ns);
    hist_.observe(static_cast<uint64_t>(ns));
    if (span_.active()) span_.attr("items", items_);
    eng_.commit_stats(delta);
  }

  void set_items(uint64_t n) { items_ = n; }

  EngineStats delta;

 private:
  CryptoEngine& eng_;
  telemetry::Histogram& hist_;
  telemetry::Span span_;
  uint64_t items_ = 0;
  std::chrono::steady_clock::time_point start_;
};

// --------------------------------------------------------- construction --

CryptoEngine::CryptoEngine(const Group& grp, int threads)
    : grp_(&grp), threads_(1), cache_(std::make_unique<LruCache>()),
      stat_cells_(std::make_unique<StatCells>()) {
  set_threads(threads);
}

CryptoEngine::~CryptoEngine() = default;

int CryptoEngine::default_threads() {
  const int o = g_default_override.load(std::memory_order_relaxed);
  if (o > 0) return o;
  if (const char* env = std::getenv("MAABE_THREADS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void CryptoEngine::set_default_threads(int threads) {
  g_default_override.store(threads > 0 ? threads : 0, std::memory_order_relaxed);
}

CryptoEngine& CryptoEngine::for_group(const Group& grp) {
  struct Slot {
    uint64_t id = 0;
    std::unique_ptr<CryptoEngine> engine;
  };
  static std::mutex reg_mu;
  static std::map<const Group*, Slot> registry;
  std::lock_guard<std::mutex> lk(reg_mu);
  Slot& slot = registry[&grp];
  if (!slot.engine || slot.id != grp.instance_id()) {
    // First sighting, or the address was reused by a new Group after the
    // old one died — either way the engine (and its cached tables, which
    // reference the dead Group's contexts) must be rebuilt.
    slot.engine = std::make_unique<CryptoEngine>(grp);
    slot.id = grp.instance_id();
  }
  return *slot.engine;
}

void CryptoEngine::set_threads(int threads) {
  const int n = threads > 0 ? threads : default_threads();
  std::lock_guard<std::mutex> lk(mu_);
  if (n == threads_ && (pool_ || n == 1)) return;
  pool_.reset();  // joins workers; must not race a running batch
  threads_ = n;
  // Pool holds threads_ - 1 workers; the submitting thread participates.
  if (threads_ > 1) pool_ = std::make_unique<Pool>(threads_ - 1);
}

void CryptoEngine::run_items(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (pool_ == nullptr || n < 2 || tl_in_worker) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Pool workers have no current span: carry the caller's so spans
  // started inside an item join its trace instead of rooting new ones.
  const telemetry::SpanContext ctx = telemetry::Tracer::current();
  if (!ctx.valid()) return pool_->run(n, fn);
  pool_->run(n, [&](size_t i) {
    telemetry::ContextOverride scope(ctx);
    fn(i);
  });
}

void CryptoEngine::parallel_for(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  telemetry::Span span = telemetry::Tracer::global().start_span("engine.parallel_for");
  if (span.active()) span.attr("items", static_cast<uint64_t>(n));
  EngineStats d;
  d.tasks = n;
  commit_stats(d);
  run_items(n, fn);
}

GT CryptoEngine::pairing_product(const std::vector<PairTerm>& terms) {
  return pairing_power_product(terms, {});
}

GT CryptoEngine::pairing_power_product(const std::vector<PairTerm>& terms,
                                       const std::vector<Zr>& exps) {
  if (!exps.empty() && exps.size() != terms.size())
    throw MathError("pairing_power_product: terms/exps size mismatch");
  BatchScope scope(*this, EngineMetrics::get().pair_batch_ns,
                   "engine.pairing_product");
  const size_t n = terms.size();
  scope.delta.pairings = n;
  scope.set_items(n);
  // Sort the live terms into classes, in first-appearance order. pair()
  // defines identity inputs as 1, and a zero exponent makes the factor
  // 1 outright; both would inject degenerate values into the shared
  // reduction, so they are skipped — which is exactly what the serial
  // fold multiplies by anyway. A term whose exponent is small folds it
  // into its second argument and joins its first argument's folded
  // class; a full-size exponent keys a class by (first argument,
  // exponent). By bilinearity a class is ONE pairing,
  //   prod_i e(a, b_i)^{k_i} == e(a, sum_i k_i*b_i),
  //   prod_i e(a, b_i)^e     == e(a, sum_i b_i)^e,
  // exact in GT for a in the order-r subgroup.
  std::vector<size_t> heads;                   // each class's first term
  std::vector<const Zr*> powers;               // full-size exponent, or null
  std::vector<std::vector<pairing::G1Run>> runs;  // one run per distinct k
  std::vector<uint64_t> uses;                  // terms per class
  std::map<Bytes, size_t> index;  // a, or a || exponent bytes -> class
  for (size_t i = 0; i < n; ++i) {
    if (terms[i].a.is_identity() || terms[i].b.is_identity()) continue;
    if (!exps.empty() && exps[i].is_zero()) continue;
    const std::optional<pairing::SmallScalar> small =
        exps.empty() ? pairing::SmallScalar{} : small_exponent(exps[i], grp_->order());
    Bytes key = terms[i].a.to_bytes();
    if (!small) {
      const Bytes e = exps[i].to_bytes();
      key.insert(key.end(), e.begin(), e.end());
    }
    const auto [it, fresh] = index.try_emplace(std::move(key), heads.size());
    if (fresh) {
      heads.push_back(i);
      powers.push_back(small ? nullptr : &exps[i]);
      runs.emplace_back();
      uses.push_back(0);
    }
    const size_t c = it->second;
    const pairing::SmallScalar k = small.value_or(pairing::SmallScalar{});
    auto run = std::find_if(runs[c].begin(), runs[c].end(),
                            [&](const pairing::G1Run& r) { return r.k == k; });
    if (run == runs[c].end()) run = runs[c].insert(run, {k, {}});
    run->pts.push_back(terms[i].b);
    ++uses[c];
  }
  // One batch inversion takes every class's second argument to affine.
  // A class whose argument cancels to the identity is a factor of 1,
  // skipped like an identity term.
  const std::vector<G1> seconds = grp_->g1_combinations(runs);
  std::vector<size_t> live;
  for (size_t c = 0; c < seconds.size(); ++c)
    if (!seconds[c].is_identity()) live.push_back(c);
  if (live.empty()) return grp_->gt_one();
  scope.delta.tasks = live.size();
  scope.delta.miller_loops = live.size();
  scope.delta.final_exps = 1;

  // One LRU touch per class, weighted by its term count: a base's use
  // count measures how often it recurs across products, so merging
  // does not delay the promotion of a first argument to a line table.
  std::vector<std::shared_ptr<const pairing::PairingPrecomp>> pre(live.size());
  {
    std::lock_guard<std::mutex> lk(cache_->mu);
    for (size_t j = 0; j < live.size(); ++j) {
      const size_t c = live[j];
      pre[j] = cache_->line_table(*grp_, terms[heads[c]].a, uses[c], false, scope.delta);
    }
  }

  // Parallel Miller loops, one per class; the reduction below stays on
  // the caller.
  std::vector<pairing::MillerVal> parts(live.size());
  run_items(live.size(), [&](size_t j) {
    const size_t c = live[j];
    parts[j] = pre[j] ? grp_->miller_with(*pre[j], seconds[c])
                      : grp_->miller(terms[heads[c]].a, seconds[c]);
  });

  // Fold unreduced values in class order — exact arithmetic makes the
  // reduced product byte-identical to the serial pair-then-multiply
  // loop at any thread count. Runs of adjacent classes with equal
  // full-size exponents fold first and are raised once
  // ((m1*m2)^e == m1^e * m2^e exactly); folded classes are raised to
  // nothing.
  const auto same_power = [&](size_t x, size_t y) {
    const Zr* ex = powers[live[x]];
    const Zr* ey = powers[live[y]];
    return ex == nullptr ? ey == nullptr : ey != nullptr && *ex == *ey;
  };
  pairing::MillerVal acc = grp_->miller_one();
  for (size_t j = 0; j < live.size();) {
    pairing::MillerVal run = parts[j];
    size_t end = j + 1;
    for (; end < live.size() && same_power(j, end); ++end) run = run.mul(parts[end]);
    if (const Zr* e = powers[live[j]]) {
      ++scope.delta.gt_exps;
      run = run.pow(*e);
    }
    acc = acc.mul(run);
    j = end;
  }
  // The single shared final exponentiation for the whole product.
  return grp_->miller_reduce(acc);
}

namespace {

/// Group's lane passes take eight items; the engine fans such chunks.
constexpr size_t kChunk = math::detail::Lanes::kLanes;

size_t chunks_of(size_t n) { return (n + kChunk - 1) / kChunk; }

/// Chunk c of a fixed-base walk: out[i] = tables[i]^ks[i] for its up to
/// eight items, as one Group::g1_pow_with_batch_jac.
void walk_chunk(const Group& grp, std::span<const pairing::G1FixedBase* const> tables,
                std::span<const Zr> ks, size_t c, std::span<pairing::JacPoint> out) {
  const size_t at = c * kChunk, m = std::min(kChunk, ks.size() - at);
  const std::vector<pairing::JacPoint> part =
      grp.g1_pow_with_batch_jac(tables.subspan(at, m), ks.subspan(at, m));
  std::copy(part.begin(), part.end(), out.begin() + static_cast<ptrdiff_t>(at));
}

/// Chunk c of untabled multiplies: out[i] = bases[i]^ks[i] for its up to
/// eight items, as one Group::g1_mul_batch_jac (one lane pass, each lane
/// with its own scalar).
void mul_chunk(const Group& grp, std::span<const G1> bases, std::span<const Zr> ks, size_t c,
               std::span<pairing::JacPoint> out) {
  const size_t at = c * kChunk, m = std::min(kChunk, ks.size() - at);
  const std::vector<pairing::JacPoint> part =
      grp.g1_mul_batch_jac(bases.subspan(at, m), ks.subspan(at, m));
  std::copy(part.begin(), part.end(), out.begin() + static_cast<ptrdiff_t>(at));
}

}  // namespace

std::vector<GT> CryptoEngine::pair_batch(const G1& a, const std::vector<G1>& bs) {
  BatchScope scope(*this, EngineMetrics::get().pair_batch_ns, "engine.pair_batch");
  const size_t n = bs.size();
  scope.delta.pairings = n;
  scope.set_items(n);
  std::vector<GT> out(n, grp_->gt_one());
  const uint64_t live =
      a.is_identity() ? 0
                      : static_cast<uint64_t>(std::count_if(
                            bs.begin(), bs.end(), [](const G1& b) { return !b.is_identity(); }));
  if (live == 0) return out;
  scope.delta.miller_loops = live;
  scope.delta.final_exps = live;
  std::shared_ptr<const pairing::PairingPrecomp> pre;
  {
    std::lock_guard<std::mutex> lk(cache_->mu);
    pre = cache_->line_table(*grp_, a, live, false, scope.delta, live);
  }
  if (!pre) {
    scope.delta.tasks = n;
    run_items(n, [&](size_t i) { out[i] = grp_->pair(a, bs[i]); });
    return out;
  }
  scope.delta.tasks = chunks_of(n);
  run_items(chunks_of(n), [&](size_t c) {
    const size_t at = c * kChunk;
    const std::vector<GT> part =
        grp_->pair_batch(*pre, std::span(bs).subspan(at, std::min(kChunk, n - at)));
    std::copy(part.begin(), part.end(), out.begin() + static_cast<ptrdiff_t>(at));
  });
  return out;
}

void CryptoEngine::warm_pair_precomp(const pairing::G1& base) {
  if (base.is_identity()) return;
  EngineStats d;
  {
    std::lock_guard<std::mutex> lk(cache_->mu);
    (void)cache_->line_table(*grp_, base, 1, true, d, 0);
  }
  if (d.precomp_builds != 0) commit_stats(d);
}

std::vector<G1> CryptoEngine::multi_exp_g1(const std::vector<G1Term>& terms,
                                           bool cache_bases) {
  BatchScope scope(*this, EngineMetrics::get().multi_exp_g1_ns,
                   "engine.multi_exp_g1");
  return exp_g1(scope, terms, cache_bases);
}

std::vector<G1> CryptoEngine::exp_g1(BatchScope& scope, const std::vector<G1Term>& terms,
                                     bool cache_bases) {
  const size_t n = terms.size();
  scope.delta.g1_exps = n;
  scope.delta.tasks = n;
  scope.set_items(n);
  // Serial resolve phase: the group's g walks its own table, outside
  // the LRU; the other bases consult/update the LRU under one lock so
  // the parallel phase below touches only immutable tables. A base
  // counts one use per batch, however many of its terms the batch
  // holds, and a base with kBatchTableThreshold terms or more gets its
  // table now.
  std::vector<const pairing::G1FixedBase*> tables(n);
  std::vector<std::shared_ptr<const pairing::G1FixedBase>> held;  // the LRU tables in use
  for (size_t i = 0; i < n; ++i)
    if (terms[i].base == grp_->g()) tables[i] = &grp_->g_table();
  if (cache_bases) {
    // Each distinct base's terms, in first-appearance order.
    using Uses = std::map<Bytes, std::vector<size_t>>::value_type;
    std::map<Bytes, std::vector<size_t>> by_base;
    std::vector<const Uses*> bases;
    for (size_t i = 0; i < n; ++i) {
      if (tables[i] || terms[i].base.is_identity()) continue;
      const auto [it, fresh] = by_base.try_emplace(terms[i].base.to_bytes());
      if (fresh) bases.push_back(&*it);
      it->second.push_back(i);
    }
    std::lock_guard<std::mutex> lk(cache_->mu);
    for (const Uses* b : bases) {
      const auto& [key, idx] = *b;
      const G1& base = terms[idx.front()].base;
      auto table = cache_->table(
          &LruCache::Node::g1, key, 1, idx.size() >= kBatchTableThreshold,
          scope.delta.table_builds, scope.delta.table_hits,
          [&] { return grp_->g1_precompute(base); }, idx.size());
      if (!table) continue;
      for (const size_t i : idx) tables[i] = table.get();
      held.push_back(std::move(table));
    }
  }
  // Results stay Jacobian through the parallel phase; the batch goes to
  // affine on the caller with one inversion. The table-served terms walk
  // their tables and the others run lane passes with a scalar per lane,
  // each in chunks of eight.
  std::vector<size_t> tabled, plain;
  std::vector<const pairing::G1FixedBase*> walk_tables;
  std::vector<Zr> walk_exps, mul_exps;
  std::vector<G1> mul_bases;
  for (size_t i = 0; i < n; ++i) {
    if (tables[i]) {
      tabled.push_back(i);
      walk_tables.push_back(tables[i]);
      walk_exps.push_back(terms[i].exp);
    } else {
      plain.push_back(i);
      mul_bases.push_back(terms[i].base);
      mul_exps.push_back(terms[i].exp);
    }
  }
  std::vector<pairing::JacPoint> jac(n), walked(tabled.size()), multiplied(plain.size());
  const size_t walks = chunks_of(tabled.size());
  run_items(walks + chunks_of(plain.size()), [&](size_t c) {
    if (c < walks) return walk_chunk(*grp_, walk_tables, walk_exps, c, walked);
    mul_chunk(*grp_, mul_bases, mul_exps, c - walks, multiplied);
  });
  for (size_t j = 0; j < tabled.size(); ++j) jac[tabled[j]] = walked[j];
  for (size_t j = 0; j < plain.size(); ++j) jac[plain[j]] = multiplied[j];
  return grp_->g1_normalize(jac);
}

std::vector<GT> CryptoEngine::multi_exp_gt(const std::vector<GtTerm>& terms,
                                           bool cache_bases) {
  BatchScope scope(*this, EngineMetrics::get().multi_exp_gt_ns,
                   "engine.multi_exp_gt");
  const size_t n = terms.size();
  scope.delta.gt_exps = n;
  scope.delta.tasks = n;
  scope.set_items(n);
  std::vector<std::shared_ptr<const pairing::GtFixedBase>> tables(n);
  if (cache_bases) {
    std::lock_guard<std::mutex> lk(cache_->mu);
    for (size_t i = 0; i < n; ++i) {
      if (terms[i].base.is_one()) continue;
      tables[i] = cache_->table(&LruCache::Node::gt, terms[i].base.to_bytes(), 1,
                                false, scope.delta.table_builds,
                                scope.delta.table_hits,
                                [&] { return grp_->gt_precompute(terms[i].base); });
    }
  }
  std::vector<GT> out(n);
  run_items(n, [&](size_t i) {
    out[i] = tables[i] ? grp_->gt_pow_with(*tables[i], terms[i].exp)
                       : terms[i].base.pow(terms[i].exp);
  });
  return out;
}

std::vector<G1> CryptoEngine::g_pow_batch(const std::vector<Zr>& exps) {
  BatchScope scope(*this, EngineMetrics::get().g_pow_batch_ns,
                   "engine.g_pow_batch");
  std::vector<G1Term> terms;
  terms.reserve(exps.size());
  for (const Zr& e : exps) terms.push_back({grp_->g(), e});
  return exp_g1(scope, terms, false);
}

std::vector<GT> CryptoEngine::egg_pow_batch(const std::vector<Zr>& exps) {
  BatchScope scope(*this, EngineMetrics::get().egg_pow_batch_ns,
                   "engine.egg_pow_batch");
  scope.delta.gt_exps = exps.size();
  scope.delta.tasks = exps.size();
  scope.set_items(exps.size());
  std::vector<GT> out(exps.size());
  run_items(exps.size(), [&](size_t i) { out[i] = grp_->egg_pow(exps[i]); });
  return out;
}

std::vector<G1> CryptoEngine::base_pow_batch(const G1& base, const std::vector<Zr>& exps) {
  BatchScope scope(*this, EngineMetrics::get().base_pow_batch_ns,
                   "engine.base_pow_batch");
  const size_t n = exps.size();
  scope.delta.g1_exps = n;
  scope.delta.tasks = n;
  scope.set_items(n);
  // The table lives for this batch only; counted as multi_exp_g1 counts
  // an LRU table: one build, and a hit for every exponent it serves.
  std::unique_ptr<const pairing::G1FixedBase> table;
  if (!base.is_identity() && n >= kBatchTableThreshold) {
    table = grp_->g1_precompute(base);
    scope.delta.table_builds = 1;
    scope.delta.table_hits = n;
  }
  std::vector<pairing::JacPoint> jac(n);
  if (table) {
    const std::vector<const pairing::G1FixedBase*> tables(n, table.get());
    run_items(chunks_of(n), [&](size_t c) { walk_chunk(*grp_, tables, exps, c, jac); });
  } else {
    const std::vector<G1> bases(n, base);
    run_items(chunks_of(n), [&](size_t c) { mul_chunk(*grp_, bases, exps, c, jac); });
  }
  return grp_->g1_normalize(jac);
}

size_t CryptoEngine::cached_bases() const {
  std::lock_guard<std::mutex> lk(cache_->mu);
  return cache_->index.size();
}

EngineStats CryptoEngine::stats() const {
  const StatCells& c = *stat_cells_;
  for (;;) {
    const uint64_t s1 = c.seq.load(std::memory_order_acquire);
    if ((s1 & 1) == 0) {
      EngineStats out;
      for (size_t i = 0; i < kEngineStatCount; ++i)
        out.*kEngineStatFields[i].field = c.cells[i].load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (c.seq.load(std::memory_order_relaxed) == s1) return out;
    }
    std::this_thread::yield();
  }
}

}  // namespace maabe::engine
