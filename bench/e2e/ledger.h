// The traced run's per-layer ledger (README.md in this directory).
//
// Every number is taken from outside the program:
//   * SpanCapture keeps the spans the program already emits in memory
//     and self_times() splits each op's latency by span name;
//   * CounterLedger attributes EngineStats and registry counter deltas
//     to the op class that caused them;
//   * ladder() times single layers through their public functions on
//     the workload's own keys, ciphertexts and stored files.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "workload.h"

namespace maabe::e2e {

struct Metric {
  double value = 0;
  std::string unit;
};
/// Metrics in emission order.
using MetricList = std::vector<std::pair<std::string, Metric>>;

/// Routes the global tracer into memory between start() and stop().
class SpanCapture {
 public:
  void start();
  void stop();
  const std::vector<telemetry::SpanRecord>& spans() const { return *spans_; }
  /// One JSON object per line (the JsonLinesSink format).
  void write_jsonl(const std::string& path) const;

 private:
  std::shared_ptr<std::vector<telemetry::SpanRecord>> spans_ =
      std::make_shared<std::vector<telemetry::SpanRecord>>();
};

/// Self time (duration minus the union of its children's intervals),
/// summed per op class and span name over the traces rooted at a
/// "bench.<class>" span.
struct SelfTimes {
  std::map<std::string, std::map<std::string, double>> ns;     ///< class -> name -> ns
  std::map<std::string, std::map<std::string, uint64_t>> spans;  ///< class -> name -> count
  /// Self ns of `name` per op of `cls`.
  double per_op_ns(const std::string& cls, const std::string& name, uint64_t ops) const;
};
SelfTimes self_times(const std::vector<telemetry::SpanRecord>& spans);

/// Registry series the ledger reads around every op.
enum Series : size_t {
  kFrames,
  kFrameBytes,
  kRetries,
  kFetches,
  kSlotsReencrypted,
  kQuorumReads,
  kQuorumFailures,
  kEpochs,
  kEpochAborts,
  kCacheHits,
  kCacheMisses,
  kSeriesCount
};

/// Counter deltas per op class.
class CounterLedger : public OpObserver {
 public:
  struct Counts {
    uint64_t ops = 0;
    engine::EngineStats engine;
    std::array<uint64_t, kSeriesCount> series{};
    uint64_t operator[](Series s) const { return series[s]; }
  };

  explicit CounterLedger(const pairing::Group& grp);
  void before(OpClass c) override;
  void after(OpClass c) override;

  const Counts& of(OpClass c) const { return by_class_[static_cast<size_t>(c)]; }
  Counts total() const;

 private:
  Counts sample() const;

  engine::CryptoEngine& engine_;
  std::vector<telemetry::Counter*> counters_;
  Counts at_start_;
  std::array<Counts, kClassCount> by_class_{};
};

/// Single-layer timings on the world's inputs (tracing must be off).
/// Leaves the world usable but with extra revisions uploaded.
MetricList ladder(World& world);

}  // namespace maabe::e2e
