#include "telemetry/metrics.h"

#include <algorithm>
#include <sstream>

namespace maabe::telemetry {
namespace {

std::atomic<size_t> g_next_thread_slot{0};
std::atomic<uint64_t> g_next_instance{0};

}  // namespace

size_t Counter::cell_index() noexcept {
  // Round-robin slot assignment at first use per thread: cheaper and
  // better distributed than hashing std::thread::id.
  static thread_local const size_t slot =
      g_next_thread_slot.fetch_add(1, std::memory_order_relaxed) % kCells;
  return slot;
}

Histogram::Histogram(std::vector<uint64_t> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = latency_ns_bounds();
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(uint64_t v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const size_t idx = static_cast<size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

Histogram::Data Histogram::data() const {
  Data d;
  d.bounds = bounds_;
  d.counts.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i)
    d.counts[i] = buckets_[i].load(std::memory_order_relaxed);
  d.count = count_.load(std::memory_order_relaxed);
  d.sum = sum_.load(std::memory_order_relaxed);
  return d;
}

std::vector<uint64_t> Histogram::latency_ns_bounds() {
  std::vector<uint64_t> b;
  for (uint64_t v = 1000; v <= 1'000'000'000ull; v *= 4) b.push_back(v);
  return b;
}

uint64_t Snapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

int64_t Snapshot::gauge(const std::string& name) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? 0 : it->second;
}

uint64_t Snapshot::counter(const std::string& name, const Labels& labels) const {
  const auto it = labelled_counters.find(series_key(name, labels));
  return it == labelled_counters.end() ? 0 : it->second;
}

int64_t Snapshot::gauge(const std::string& name, const Labels& labels) const {
  const auto it = labelled_gauges.find(series_key(name, labels));
  return it == labelled_gauges.end() ? 0 : it->second;
}

void Snapshot::add_gauge(const std::string& name, int64_t v) {
  gauges[name] += v;
}

void Snapshot::add_gauge(const std::string& name, const Labels& labels, int64_t v) {
  labelled_gauges[series_key(name, labels)] += v;
  gauges[name] += v;
}

namespace {

/// Prometheus metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*.
/// Registry names are free-form (collector contributions interpolate
/// node names like "node:1" — ':' is legal, but '-' or '.' are not),
/// so the exposition maps every other character to '_' and prefixes a
/// leading digit.
std::string sanitize_metric_name(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty()) out = "_";
  if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

/// One family: HELP/TYPE once, the total, then each live series.
template <typename V>
void write_family(std::ostringstream& out, const std::string& name, const char* type,
                  const char* help, V total, const std::map<std::string, V>& labelled) {
  const std::string n = sanitize_metric_name(name);
  out << "# HELP " << n << " " << help << " " << n << ".\n";
  out << "# TYPE " << n << " " << type << "\n" << n << " " << total << "\n";
  const std::string prefix = name + "{";
  for (auto it = labelled.lower_bound(prefix);
       it != labelled.end() && it->first.starts_with(prefix); ++it)
    out << n << it->first.substr(name.size()) << " " << it->second << "\n";
}

}  // namespace

std::string series_key(std::string_view name, Labels labels) {
  std::sort(labels.begin(), labels.end());
  std::string out = std::string(name) + "{";
  for (const auto& [key, value] : labels) {
    if (out.back() != '{') out += ',';
    out += key + "=\"";
    for (const char c : value) {
      if (c == '\\' || c == '"') out += '\\';
      out += c == '\n' ? std::string("\\n") : std::string(1, c);
    }
    out += '"';
  }
  return out + "}";
}

std::string next_instance() {
  return std::to_string(g_next_instance.fetch_add(1, std::memory_order_relaxed) + 1);
}

std::string Snapshot::prometheus_text() const {
  std::ostringstream out;
  for (const auto& [name, v] : counters)
    write_family(out, name, "counter", "Monotonic counter", v, labelled_counters);
  for (const auto& [name, v] : gauges)
    write_family(out, name, "gauge", "Point-in-time gauge", v, labelled_gauges);
  for (const auto& [name, h] : histograms) {
    const std::string n = sanitize_metric_name(name);
    out << "# HELP " << n << " Cumulative histogram " << n << ".\n";
    out << "# TYPE " << n << " histogram\n";
    // Canonical le order: ascending finite bounds, then +Inf; buckets
    // are cumulative so each count includes every bucket below it.
    uint64_t cum = 0;
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      cum += h.counts[i];
      out << n << "_bucket{le=\"" << h.bounds[i] << "\"} " << cum << "\n";
    }
    out << n << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    out << n << "_sum " << h.sum << "\n";
    out << n << "_count " << h.count << "\n";
  }
  return out.str();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* reg = new MetricsRegistry();  // intentionally leaked
  return *reg;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::unique_ptr<Counter>(new Counter()))
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::unique_ptr<Gauge>(new Gauge()))
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<uint64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(new Histogram(std::move(bounds))))
             .first;
  }
  return *it->second;
}

// Expired series are pruned whenever one is interned.
CounterSeries MetricsRegistry::counter(std::string_view name, const Labels& labels) {
  Counter* family = &counter(name);
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(labelled_counters_, [](const auto& kv) { return kv.second.expired(); });
  std::weak_ptr<Counter>& slot = labelled_counters_[series_key(name, labels)];
  CounterSeries series = slot.lock();
  if (!series) slot = series = CounterSeries(new Counter(family));
  return series;
}

GaugeSeries MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  Gauge* family = &gauge(name);
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(labelled_gauges_, [](const auto& kv) { return kv.second.expired(); });
  std::weak_ptr<Gauge>& slot = labelled_gauges_[series_key(name, labels)];
  GaugeSeries series = slot.lock();
  if (!series) slot = series = GaugeSeries(new Gauge(family));
  return series;
}

MetricsRegistry::CollectorToken::CollectorToken(CollectorToken&& o) noexcept
    : reg_(o.reg_), id_(o.id_) {
  o.reg_ = nullptr;
  o.id_ = 0;
}

MetricsRegistry::CollectorToken& MetricsRegistry::CollectorToken::operator=(
    CollectorToken&& o) noexcept {
  if (this != &o) {
    reset();
    reg_ = o.reg_;
    id_ = o.id_;
    o.reg_ = nullptr;
    o.id_ = 0;
  }
  return *this;
}

void MetricsRegistry::CollectorToken::reset() {
  if (reg_ != nullptr) {
    std::lock_guard<std::mutex> lock(reg_->collector_mu_);
    reg_->collectors_.erase(id_);
    reg_ = nullptr;
    id_ = 0;
  }
}

MetricsRegistry::CollectorToken MetricsRegistry::register_collector(Collector fn) {
  std::lock_guard<std::mutex> lock(collector_mu_);
  const uint64_t id = next_collector_id_++;
  collectors_.emplace(id, std::move(fn));
  return CollectorToken(this, id);
}

Snapshot MetricsRegistry::collect() const {
  Snapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
    for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
    for (const auto& [name, h] : histograms_) snap.histograms[name] = h->data();
    for (const auto& [key, weak] : labelled_counters_)
      if (const CounterSeries c = weak.lock()) snap.labelled_counters[key] = c->value();
    for (const auto& [key, weak] : labelled_gauges_)
      if (const GaugeSeries g = weak.lock()) snap.labelled_gauges[key] = g->value();
  }
  // Callbacks run without the registry mutex: a collector may read
  // subsystem state whose locks are held around metric updates
  // elsewhere (queue depth vs. a handler bumping a counter) without a
  // lock-order cycle. collector_mu_ keeps the token guarantee: reset()
  // returns only once no callback is in flight.
  std::lock_guard<std::mutex> lock(collector_mu_);
  for (const auto& [id, fn] : collectors_) fn(snap);
  return snap;
}

}  // namespace maabe::telemetry
