#include "cloud/meter.h"

namespace maabe::cloud {

ChannelStats& ChannelStats::operator+=(const ChannelStats& o) {
  payload_bytes += o.payload_bytes;
  frame_bytes += o.frame_bytes;
  frames += o.frames;
  deliveries += o.deliveries;
  drops += o.drops;
  duplicates += o.duplicates;
  corruptions += o.corruptions;
  ack_losses += o.ack_losses;
  delays += o.delays;
  delay_ms += o.delay_ms;
  script_failures += o.script_failures;
  retries += o.retries;
  redeliveries += o.redeliveries;
  bytes_delivered += o.bytes_delivered;
  bytes_accepted += o.bytes_accepted;
  return *this;
}

ChannelMeter::ChannelMeter(const std::string& instance) {
  auto& reg = telemetry::MetricsRegistry::global();
  const telemetry::Labels l{{"instance", instance}};
  m_ = {reg.counter("maabe_transport_frames_total", l),
        reg.counter("maabe_transport_frame_bytes_total", l),
        reg.counter("maabe_transport_deliveries_total", l),
        reg.counter("maabe_transport_faults_total", l),
        reg.counter("maabe_transport_retries_total", l),
        reg.counter("maabe_transport_redeliveries_total", l)};
}

void ChannelMeter::frame(const std::string& from, const std::string& to,
                         size_t frame_bytes, size_t payload_bytes) {
  record(from, to, [&](ChannelStats& s) {
    ++s.frames;
    s.frame_bytes += frame_bytes;
    s.payload_bytes += payload_bytes;
    m_.frames->inc();
    m_.frame_bytes->add(frame_bytes);
  });
}

void ChannelMeter::delivery(const std::string& from, const std::string& to,
                            size_t payload_bytes) {
  record(from, to, [&](ChannelStats& s) {
    ++s.deliveries;
    s.bytes_delivered += payload_bytes;
    m_.deliveries->inc();
  });
}

void ChannelMeter::duplicate(const std::string& from, const std::string& to,
                             size_t frame_bytes, size_t payload_bytes) {
  record(from, to, [&](ChannelStats& s) {
    ++s.duplicates;
    ++s.frames;
    s.frame_bytes += frame_bytes;
    ++s.deliveries;
    s.bytes_delivered += payload_bytes;
    m_.faults->inc();
    m_.frames->inc();
    m_.frame_bytes->add(frame_bytes);
    m_.deliveries->inc();
  });
}

void ChannelMeter::bump(const std::string& from, const std::string& to,
                        uint64_t ChannelStats::*field,
                        const telemetry::CounterSeries& series) {
  record(from, to, [&](ChannelStats& s) {
    ++(s.*field);
    series->inc();
  });
}

void ChannelMeter::delay(const std::string& from, const std::string& to, uint64_t ms) {
  record(from, to, [&](ChannelStats& s) {
    ++s.delays;
    s.delay_ms += ms;
    m_.faults->inc();
  });
}

void ChannelMeter::accepted(const std::string& from, const std::string& to,
                            size_t bytes) {
  record(from, to, [&](ChannelStats& s) { s.bytes_accepted += bytes; });
}

ChannelStats ChannelMeter::stats(const std::string& from, const std::string& to) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = rows_.find({from, to});
  return it == rows_.end() ? ChannelStats{} : it->second;
}

ChannelStats ChannelMeter::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  ChannelStats out;
  for (const auto& [channel, stats] : rows_) out += stats;
  return out;
}

size_t ChannelMeter::between(const std::string& a, const std::string& b) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [channel, stats] : rows_) {
    if ((channel.first == a && channel.second == b) ||
        (channel.first == b && channel.second == a))
      total += stats.payload_bytes;
  }
  return total;
}

std::map<std::pair<std::string, std::string>, ChannelStats> ChannelMeter::entries()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_;
}

}  // namespace maabe::cloud
