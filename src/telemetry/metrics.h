// Process-wide metrics: a registry of named counters, gauges and
// fixed-bucket latency histograms (DESIGN.md §11).
//
// Counters and gauges come in families: owners with an identity (one
// CloudSystem, one node) record into labelled series, whose adds roll
// up into the bare-name family total.
//
// Hot paths (pairings, multi-exps, shard lookups, frame sends) record
// through std::atomic cells — counters shard their cells across cache
// lines so concurrent writers do not bounce a single line. The registry
// mutex is touched only when a metric handle is first interned; callers
// cache the returned handle (bare-name handles live until process exit,
// labelled ones as long as their owner holds them).
//
// Snapshots are pull-based: collect() sums the cells and then runs the
// registered collector callbacks, which let subsystems contribute
// point-in-time gauges of state that is not a count of events (queue
// depths, ChannelMeter totals, CloudServer occupancy). The result
// renders as a Prometheus-style text exposition via prometheus_text().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace maabe::telemetry {

/// Monotonic counter. add() is lock-free and wait-free: each thread
/// hashes to one of kCells cache-line-sized cells and does a relaxed
/// fetch_add there; value() sums the cells (so a concurrent read may
/// miss in-flight adds, but never tears below a previously-read value
/// of any single cell).
class Counter {
 public:
  void add(uint64_t delta) noexcept {
    cells_[cell_index()].v.fetch_add(delta, std::memory_order_relaxed);
    if (family_ != nullptr) family_->add(delta);
  }
  void inc() noexcept { add(1); }

  uint64_t value() const noexcept {
    uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  friend class MetricsRegistry;
  explicit Counter(Counter* family = nullptr) : family_(family) {}

  static constexpr size_t kCells = 8;
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  static size_t cell_index() noexcept;

  Cell cells_[kCells];
  Counter* family_;  ///< bare-name total of a labelled series, else null
};

/// Last-write-wins signed value (queue depths, sizes). A labelled gauge
/// withdraws its value from the family total when retired.
class Gauge {
 public:
  void set(int64_t v) noexcept {
    const int64_t old = v_.exchange(v, std::memory_order_relaxed);
    if (family_ != nullptr) family_->add(v - old);
  }
  void add(int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
    if (family_ != nullptr) family_->add(d);
  }
  int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }

  ~Gauge() {
    if (family_ != nullptr) family_->add(-value());
  }
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

 private:
  friend class MetricsRegistry;
  explicit Gauge(Gauge* family = nullptr) : family_(family) {}
  std::atomic<int64_t> v_{0};
  Gauge* family_;
};

/// One series' labels, e.g. {{"instance", "3"}, {"node", "node:1"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// The series key `name{k1="v1",k2="v2"}`: keys (valid Prometheus label
/// names) sorted, values escaped.
std::string series_key(std::string_view name, Labels labels);

/// A fresh process-unique value for the `instance` label.
std::string next_instance();

/// Owning handles of labelled series: the series leaves the exposition
/// when its last handle is dropped.
using CounterSeries = std::shared_ptr<Counter>;
using GaugeSeries = std::shared_ptr<Gauge>;

/// Fixed-bucket histogram. observe() is lock-free: a binary search over
/// the (immutable) bounds plus three relaxed fetch_adds. Bounds are
/// cumulative upper bounds in ascending order; an implicit +Inf bucket
/// catches the tail, matching Prometheus `le` semantics.
class Histogram {
 public:
  void observe(uint64_t v) noexcept;

  const std::vector<uint64_t>& bounds() const { return bounds_; }

  struct Data {
    std::vector<uint64_t> bounds;  ///< upper bounds (no +Inf entry)
    std::vector<uint64_t> counts;  ///< per-bucket, size = bounds.size() + 1
    uint64_t count = 0;            ///< total observations
    uint64_t sum = 0;              ///< sum of observed values
  };
  Data data() const;

  /// Default bounds for nanosecond latencies: 1us .. 1s, x4 steps.
  static std::vector<uint64_t> latency_ns_bounds();

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<uint64_t> bounds);

  std::vector<uint64_t> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Point-in-time view of every metric, plus collector contributions:
/// family totals by bare name, live series by series_key().
struct Snapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, Histogram::Data> histograms;
  std::map<std::string, uint64_t> labelled_counters;
  std::map<std::string, int64_t> labelled_gauges;

  /// 0 / absent-safe lookups (missing names are not an error).
  uint64_t counter(const std::string& name) const;
  int64_t gauge(const std::string& name) const;
  uint64_t counter(const std::string& name, const Labels& labels) const;
  int64_t gauge(const std::string& name, const Labels& labels) const;

  /// Collector API: merge a gauge contribution (adds to an existing
  /// value; the labelled form also adds to the family total).
  void add_gauge(const std::string& name, int64_t v);
  void add_gauge(const std::string& name, const Labels& labels, int64_t v);

  /// Prometheus text exposition: one `# TYPE` per family, the total
  /// unlabelled, then its labelled series; counters suffixed `_total` by
  /// convention of the recording site, histograms expanded to
  /// `_bucket{le="..."}` / `_sum` / `_count` series.
  std::string prometheus_text() const;
};

class MetricsRegistry {
 public:
  /// The process-wide registry (never destroyed; safe during static
  /// teardown of other objects).
  static MetricsRegistry& global();

  /// Intern a metric by name. Repeated calls with the same name return
  /// the same handle; the reference stays valid for the process
  /// lifetime. A histogram's bounds are fixed by the first caller.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<uint64_t> bounds = {});

  /// Intern a labelled series of the `name` family (a live one is
  /// shared); adds roll up into counter(name) / gauge(name). Handles
  /// must not outlive the registry.
  CounterSeries counter(std::string_view name, const Labels& labels);
  GaugeSeries gauge(std::string_view name, const Labels& labels);

  /// Snapshot-time contributions from subsystems with structured stats.
  /// The callback runs with the registry mutex RELEASED (under a
  /// dedicated collector mutex), so it may read state guarded by locks
  /// that are themselves held around metric updates — e.g. a queue
  /// mutex held while a handler bumps a counter — without creating a
  /// lock-order cycle. It must not call collect() or
  /// register_collector() re-entrantly.
  using Collector = std::function<void(Snapshot&)>;

  /// RAII deregistration: the collector stops being invoked when the
  /// token is destroyed (CloudSystem holds one for its lifetime).
  class CollectorToken {
   public:
    CollectorToken() = default;
    CollectorToken(CollectorToken&& o) noexcept;
    CollectorToken& operator=(CollectorToken&& o) noexcept;
    ~CollectorToken() { reset(); }
    void reset();

   private:
    friend class MetricsRegistry;
    CollectorToken(MetricsRegistry* reg, uint64_t id) : reg_(reg), id_(id) {}
    MetricsRegistry* reg_ = nullptr;
    uint64_t id_ = 0;
  };
  [[nodiscard]] CollectorToken register_collector(Collector fn);

  Snapshot collect() const;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  friend class CollectorToken;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  // Labelled series by series_key(), held weakly: the owner's handle
  // decides the lifetime, and collect() skips expired ones.
  std::map<std::string, std::weak_ptr<Counter>> labelled_counters_;
  std::map<std::string, std::weak_ptr<Gauge>> labelled_gauges_;

  // Collectors live under their own mutex, never taken by the metric
  // interning above: collect() runs the callbacks holding only this
  // one, and CollectorToken::reset() blocking on it preserves the
  // "never invoked after reset" guarantee.
  mutable std::mutex collector_mu_;
  std::map<uint64_t, Collector> collectors_;
  uint64_t next_collector_id_ = 1;
};

}  // namespace maabe::telemetry
