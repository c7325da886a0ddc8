// MetricsRegistry: sharded counters, histograms, interning, collector
// tokens and the Prometheus text exposition (DESIGN.md §11).
//
// The registry is process-wide, so every assertion on a shared metric
// is delta-based: snapshot before, act, snapshot after.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "crypto/drbg.h"
#include "engine/engine.h"
#include "pairing/group.h"
#include "telemetry/metrics.h"

namespace maabe::telemetry {
namespace {

TEST(Metrics, CounterSumsAcrossThreads) {
  Counter& c = MetricsRegistry::global().counter("test_counter_threads_total");
  const uint64_t before = c.value();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value() - before, static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, InterningReturnsSameHandle) {
  MetricsRegistry& reg = MetricsRegistry::global();
  EXPECT_EQ(&reg.counter("test_interned_total"), &reg.counter("test_interned_total"));
  EXPECT_EQ(&reg.gauge("test_interned_gauge"), &reg.gauge("test_interned_gauge"));
  EXPECT_EQ(&reg.histogram("test_interned_hist"), &reg.histogram("test_interned_hist"));
}

TEST(Metrics, GaugeSetAndAdd) {
  Gauge& g = MetricsRegistry::global().gauge("test_gauge");
  g.set(42);
  EXPECT_EQ(g.value(), 42);
  g.add(-50);
  EXPECT_EQ(g.value(), -8);
}

TEST(Metrics, HistogramBucketsFollowPrometheusLeSemantics) {
  Histogram& h = MetricsRegistry::global().histogram("test_hist_buckets", {10, 100});
  // le=10 catches 3 and 10; le=100 catches 55; +Inf catches 1000.
  for (uint64_t v : {3u, 10u, 55u, 1000u}) h.observe(v);
  const Histogram::Data data = h.data();
  ASSERT_EQ(data.bounds, (std::vector<uint64_t>{10, 100}));
  ASSERT_EQ(data.counts.size(), 3u);
  EXPECT_EQ(data.counts[0], 2u);
  EXPECT_EQ(data.counts[1], 1u);
  EXPECT_EQ(data.counts[2], 1u);
  EXPECT_EQ(data.count, 4u);
  EXPECT_EQ(data.sum, 3u + 10 + 55 + 1000);
}

TEST(Metrics, HistogramBoundsFixedByFirstCaller) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Histogram& h = reg.histogram("test_hist_first_bounds", {7});
  // A second intern with different bounds returns the existing handle.
  EXPECT_EQ(&reg.histogram("test_hist_first_bounds", {1, 2, 3}), &h);
  EXPECT_EQ(h.bounds(), std::vector<uint64_t>{7});
}

TEST(Metrics, PrometheusTextExposition) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("test_prom_total").add(3);
  reg.gauge("test_prom_gauge").set(-5);
  reg.histogram("test_prom_hist", {10}).observe(4);
  const std::string text = reg.collect().prometheus_text();
  EXPECT_NE(text.find("# TYPE test_prom_total counter"), std::string::npos);
  EXPECT_NE(text.find("test_prom_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("test_prom_gauge -5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_hist histogram"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_sum 4"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_count 1"), std::string::npos);
}

// ---- Exposition conformance (DESIGN.md §16): every series gets HELP
// and TYPE lines, free-form registry names are sanitized to the
// Prometheus charset, and histograms expose cumulative _bucket series
// in ascending le order plus _sum/_count.
TEST(Metrics, ExpositionEmitsHelpBeforeTypeForEverySeries) {
  Snapshot snap;
  snap.counters["test_help_total"] = 1;
  snap.gauges["test_help_gauge"] = 2;
  Histogram::Data h;
  h.bounds = {10};
  h.counts = {1, 0};
  h.count = 1;
  h.sum = 4;
  snap.histograms["test_help_hist"] = h;
  const std::string text = snap.prometheus_text();
  for (const char* n : {"test_help_total", "test_help_gauge", "test_help_hist"}) {
    const size_t help = text.find("# HELP " + std::string(n) + " ");
    const size_t type = text.find("# TYPE " + std::string(n) + " ");
    ASSERT_NE(help, std::string::npos) << n;
    ASSERT_NE(type, std::string::npos) << n;
    EXPECT_LT(help, type) << n << ": HELP must precede TYPE";
  }
}

TEST(Metrics, ExpositionSanitizesNonPrometheusNameCharacters) {
  Snapshot snap;
  // Collector contributions interpolate node names: '-' and '.' are
  // illegal in a metric name, ':' is legal.
  snap.gauges["maabe_node:node-1.lag"] = 3;
  snap.counters["9starts_with_digit"] = 1;
  const std::string text = snap.prometheus_text();
  EXPECT_NE(text.find("maabe_node:node_1_lag 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE maabe_node:node_1_lag gauge"), std::string::npos);
  EXPECT_EQ(text.find("node-1.lag"), std::string::npos);
  EXPECT_NE(text.find("_9starts_with_digit 1"), std::string::npos);
}

TEST(Metrics, ExpositionHistogramBucketsAreCumulativeAscending) {
  Snapshot snap;
  Histogram::Data h;
  h.bounds = {10, 100, 1000};
  h.counts = {2, 3, 0, 1};  // per-bucket, last is the overflow bucket
  h.count = 6;
  h.sum = 1234;
  snap.histograms["test_cum_hist"] = h;
  const std::string text = snap.prometheus_text();
  // Cumulative: each bucket includes everything below; +Inf == _count.
  const size_t b10 = text.find("test_cum_hist_bucket{le=\"10\"} 2\n");
  const size_t b100 = text.find("test_cum_hist_bucket{le=\"100\"} 5\n");
  const size_t b1000 = text.find("test_cum_hist_bucket{le=\"1000\"} 5\n");
  const size_t binf = text.find("test_cum_hist_bucket{le=\"+Inf\"} 6\n");
  ASSERT_NE(b10, std::string::npos);
  ASSERT_NE(b100, std::string::npos);
  ASSERT_NE(b1000, std::string::npos);
  ASSERT_NE(binf, std::string::npos);
  EXPECT_LT(b10, b100);
  EXPECT_LT(b100, b1000);
  EXPECT_LT(b1000, binf);
  EXPECT_NE(text.find("test_cum_hist_sum 1234"), std::string::npos);
  EXPECT_NE(text.find("test_cum_hist_count 6"), std::string::npos);
}

// ---- Labelled series (DESIGN.md §11): an owner's labelled handle is
// its only record; adds roll up into the bare-name family, and the
// series leaves the exposition with its last handle.

size_t count_of(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1))
    ++n;
  return n;
}

TEST(Metrics, LabelledCounterRollsUpIntoBareFamily) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& family = reg.counter("test_rollup_total");
  const uint64_t before = family.value();
  CounterSeries a = reg.counter("test_rollup_total", {{"instance", "a"}});
  CounterSeries b = reg.counter("test_rollup_total", {{"instance", "b"}});
  a->add(3);
  b->inc();
  EXPECT_EQ(a->value(), 3u);
  EXPECT_EQ(b->value(), 1u);
  EXPECT_EQ(family.value() - before, 4u);
  const Snapshot snap = reg.collect();
  EXPECT_EQ(snap.counter("test_rollup_total") - before, 4u);
  EXPECT_EQ(snap.counter("test_rollup_total", {{"instance", "a"}}), 3u);
  EXPECT_EQ(snap.counter("test_rollup_total", {{"instance", "b"}}), 1u);
  EXPECT_EQ(snap.counter("test_rollup_total", {{"instance", "c"}}), 0u);
}

TEST(Metrics, LiveLabelledSeriesIsSharedAndLabelOrderIsImmaterial) {
  MetricsRegistry& reg = MetricsRegistry::global();
  CounterSeries a = reg.counter("test_shared_total", {{"instance", "1"}, {"node", "n"}});
  CounterSeries b = reg.counter("test_shared_total", {{"node", "n"}, {"instance", "1"}});
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(series_key("f", {{"node", "n"}, {"instance", "1"}}),
            "f{instance=\"1\",node=\"n\"}");
}

TEST(Metrics, RetiredCounterSeriesLeavesExpositionButFamilyKeepsItsCounts) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const uint64_t before = reg.counter("test_retire_total").value();
  CounterSeries s = reg.counter("test_retire_total", {{"instance", "gone"}});
  s->add(5);
  EXPECT_NE(reg.collect().prometheus_text().find("test_retire_total{instance=\"gone\"} 5\n"),
            std::string::npos);
  s.reset();
  const Snapshot snap = reg.collect();
  EXPECT_EQ(snap.prometheus_text().find("instance=\"gone\""), std::string::npos);
  EXPECT_EQ(snap.counter("test_retire_total") - before, 5u);
  // A later series under the same labels starts from zero.
  EXPECT_EQ(reg.counter("test_retire_total", {{"instance", "gone"}})->value(), 0u);
}

TEST(Metrics, LabelledGaugeSumsIntoFamilyAndWithdrawsWhenRetired) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Gauge& family = reg.gauge("test_labelled_gauge");
  const int64_t before = family.value();
  GaugeSeries a = reg.gauge("test_labelled_gauge", {{"instance", "a"}});
  GaugeSeries b = reg.gauge("test_labelled_gauge", {{"instance", "b"}});
  a->set(3);
  b->set(4);
  a->add(-1);
  EXPECT_EQ(family.value() - before, 6);
  EXPECT_EQ(reg.collect().gauge("test_labelled_gauge", {{"instance", "a"}}), 2);
  a.reset();
  EXPECT_EQ(family.value() - before, 4);
  const Snapshot snap = reg.collect();
  EXPECT_EQ(snap.gauge("test_labelled_gauge", {{"instance", "a"}}), 0);
  EXPECT_EQ(snap.prometheus_text().find("test_labelled_gauge{instance=\"a\"}"),
            std::string::npos);
}

TEST(Metrics, CollectorLabelledGaugeAddsToFamilyTotal) {
  Snapshot snap;
  snap.add_gauge("test_coll_gauge", {{"instance", "x"}}, 2);
  snap.add_gauge("test_coll_gauge", {{"instance", "y"}}, 5);
  EXPECT_EQ(snap.gauge("test_coll_gauge"), 7);
  EXPECT_EQ(snap.gauge("test_coll_gauge", {{"instance", "y"}}), 5);
}

TEST(Metrics, ExpositionEscapesLabelValues) {
  Snapshot snap;
  snap.add_gauge("test_escape_gauge", {{"node", "a\\b\"c\nd"}}, 1);
  const std::string text = snap.prometheus_text();
  EXPECT_NE(text.find("test_escape_gauge{node=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos)
      << text;
  // No raw newline leaks into the sample line.
  EXPECT_EQ(text.find("c\nd"), std::string::npos);
}

TEST(Metrics, ExpositionEmitsOneTypeLinePerFamily) {
  MetricsRegistry& reg = MetricsRegistry::global();
  CounterSeries a = reg.counter("test_one_type_total", {{"instance", "a"}});
  CounterSeries b = reg.counter("test_one_type_total", {{"instance", "b"}, {"node", "n"}});
  GaugeSeries g = reg.gauge("test_one_type_gauge", {{"instance", "a"}});
  a->inc();
  b->inc();
  g->set(1);
  const std::string text = reg.collect().prometheus_text();
  EXPECT_EQ(count_of(text, "# TYPE test_one_type_total counter\n"), 1u);
  EXPECT_EQ(count_of(text, "# HELP test_one_type_total "), 1u);
  EXPECT_EQ(count_of(text, "# TYPE test_one_type_gauge gauge\n"), 1u);
  EXPECT_NE(text.find("test_one_type_total{instance=\"b\",node=\"n\"} 1\n"),
            std::string::npos);
  // Every family in the whole exposition is typed exactly once.
  std::map<std::string, int> types;
  for (size_t pos = text.find("# TYPE "); pos != std::string::npos;
       pos = text.find("# TYPE ", pos + 1)) {
    const size_t name_end = text.find(' ', pos + 7);
    ++types[text.substr(pos + 7, name_end - pos - 7)];
  }
  for (const auto& [name, n] : types) EXPECT_EQ(n, 1) << name;
}

TEST(Metrics, InstanceLabelsAreUnique) {
  EXPECT_NE(next_instance(), next_instance());
}

TEST(Metrics, CollectorRunsUntilTokenReset) {
  MetricsRegistry& reg = MetricsRegistry::global();
  MetricsRegistry::CollectorToken token = reg.register_collector(
      [](Snapshot& snap) { snap.add_gauge("test_collector_gauge", 11); });
  EXPECT_EQ(reg.collect().gauge("test_collector_gauge"), 11);
  token.reset();
  EXPECT_EQ(reg.collect().gauge("test_collector_gauge"), 0);
}

TEST(Metrics, AddGaugeMergesAcrossCollectors) {
  MetricsRegistry& reg = MetricsRegistry::global();
  MetricsRegistry::CollectorToken a = reg.register_collector(
      [](Snapshot& snap) { snap.add_gauge("test_merged_gauge", 2); });
  MetricsRegistry::CollectorToken b = reg.register_collector(
      [](Snapshot& snap) { snap.add_gauge("test_merged_gauge", 3); });
  EXPECT_EQ(reg.collect().gauge("test_merged_gauge"), 5);
}

TEST(Metrics, SnapshotLookupsAreAbsentSafe) {
  const Snapshot snap = MetricsRegistry::global().collect();
  EXPECT_EQ(snap.counter("test_never_registered_total"), 0u);
  EXPECT_EQ(snap.gauge("test_never_registered_gauge"), 0);
}

// The registry's engine counters move in lockstep with EngineStats: the
// two views of the same batch must agree (the CLI's --metrics-out
// acceptance check relies on this). The sequence below exercises every
// batch API, so each of the 12 fields moves; a field missing from
// kEngineStatFields would stay at 0 in the snapshot and in the registry.
TEST(Metrics, EngineCountersMatchEngineStats) {
  auto grp = pairing::Group::test_small();
  engine::CryptoEngine eng(*grp, 2);
  const Snapshot before = MetricsRegistry::global().collect();
  const engine::EngineStats stats_before = eng.stats();

  crypto::Drbg rng(std::string_view("metrics-match"));
  std::vector<pairing::Zr> exps;
  for (int i = 0; i < 6; ++i) exps.push_back(grp->zr_random(rng));
  // A product whose repeated first argument crosses the line-table
  // threshold mid-batch: builds a table and hits it.
  const pairing::G1 hot = grp->g1_random(rng);
  std::vector<engine::CryptoEngine::PairTerm> terms;
  for (int i = 0; i < 6; ++i) terms.push_back({hot, grp->g1_random(rng)});
  (void)eng.pairing_power_product(terms, exps);
  // A warmed base, then a pair_batch of one against it.
  const pairing::G1 warmed = grp->g1_random(rng);
  eng.warm_pair_precomp(warmed);
  (void)eng.pair_batch(warmed, {grp->g1_random(rng)});
  // A G1 base with enough terms in one batch to get its window table.
  std::vector<engine::CryptoEngine::G1Term> g1_terms;
  const pairing::G1 base = grp->g1_random(rng);
  for (size_t i = 0; i < 8; ++i) g1_terms.push_back({base, exps[i % exps.size()]});
  (void)eng.multi_exp_g1(g1_terms);
  (void)eng.multi_exp_gt({{grp->gt_random(rng), exps[0]}});
  (void)eng.g_pow_batch(exps);
  (void)eng.egg_pow_batch(exps);
  eng.parallel_for(3, [](size_t) {});

  const Snapshot after = MetricsRegistry::global().collect();
  const engine::EngineStats delta = eng.stats() - stats_before;
  // The sequence is deterministic, so every field has an exact count.
  // `hot`'s line table is built at its 4th use, the G1 window table at
  // once for its base's 8 terms.
  EXPECT_EQ(delta.pairings, 7u);        // 6 product terms + the pair
  EXPECT_EQ(delta.miller_loops, 7u);
  EXPECT_EQ(delta.final_exps, 2u);      // one for the product, one for the pair
  EXPECT_EQ(delta.g1_exps, 14u);        // multi_exp_g1 8 + g_pow_batch 6
  EXPECT_EQ(delta.gt_exps, 13u);        // 6 distinct-exponent folds + 1 + 6
  EXPECT_EQ(delta.batches, 6u);         // warming and parallel_for are not batches
  EXPECT_EQ(delta.tasks, 31u);          // 6 + 1 + 8 + 1 + 6 + 6 + 3; the pair is one chunk
  EXPECT_EQ(delta.table_builds, 1u);
  EXPECT_EQ(delta.table_hits, 8u);      // every term of the G1 base
  EXPECT_EQ(delta.precomp_builds, 2u);  // `hot` at its 4th use, then `warmed`
  EXPECT_EQ(delta.precomp_hits, 4u);    // uses 4..6 of `hot`, then the pair
  EXPECT_GT(delta.wall_ns, 0u);
  EXPECT_EQ(engine::kEngineStatCount, 12u);

  for (const engine::EngineStatField& f : engine::kEngineStatFields) {
    EXPECT_EQ(after.counter(f.metric) - before.counter(f.metric), delta.*f.field)
        << f.metric;
  }
}

}  // namespace
}  // namespace maabe::telemetry
