#include "cloud/ring.h"

#include <algorithm>
#include <set>

#include "common/errors.h"
#include "crypto/sha256.h"

namespace maabe::cloud {

constexpr size_t kVnodes = 64;  // ring positions per node

uint64_t HashRing::position(const std::string& label) {
  const Bytes digest = crypto::Sha256::digest(bytes_of(label));
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) v = (v << 8) | digest[i];
  return v;
}

HashRing::HashRing(std::vector<std::string> nodes, size_t replication)
    : nodes_(std::move(nodes)) {
  if (nodes_.empty()) throw SchemeError("HashRing: no nodes");
  std::set<std::string> seen;
  for (const std::string& n : nodes_) {
    if (n.empty()) throw SchemeError("HashRing: empty node name");
    if (!seen.insert(n).second)
      throw SchemeError("HashRing: duplicate node '" + n + "'");
  }
  replication_ = std::clamp<size_t>(replication, 1, nodes_.size());
  ring_.reserve(nodes_.size() * kVnodes);
  for (uint32_t i = 0; i < nodes_.size(); ++i) {
    for (size_t v = 0; v < kVnodes; ++v) {
      ring_.emplace_back(position(nodes_[i] + "#" + std::to_string(v)), i);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::vector<std::string> HashRing::preference_order(const std::string& key) const {
  if (ring_.empty()) throw SchemeError("HashRing: not initialized");
  const uint64_t pos = position(key);
  const auto start = std::lower_bound(ring_.begin(), ring_.end(),
                                      std::make_pair(pos, uint32_t{0}));
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  std::vector<bool> taken(nodes_.size(), false);
  for (size_t step = 0; step < ring_.size() && out.size() < nodes_.size(); ++step) {
    const size_t idx =
        (static_cast<size_t>(start - ring_.begin()) + step) % ring_.size();
    const uint32_t node = ring_[idx].second;
    if (taken[node]) continue;
    taken[node] = true;
    out.push_back(nodes_[node]);
  }
  return out;
}

std::vector<std::string> HashRing::replicas_for(const std::string& key) const {
  std::vector<std::string> order = preference_order(key);
  order.resize(std::min(order.size(), replication_));
  return order;
}

const std::string& HashRing::primary_for(const std::string& key) const {
  if (ring_.empty()) throw SchemeError("HashRing: not initialized");
  const uint64_t pos = position(key);
  const auto start = std::lower_bound(ring_.begin(), ring_.end(),
                                      std::make_pair(pos, uint32_t{0}));
  const size_t idx = start == ring_.end() ? 0 : static_cast<size_t>(start - ring_.begin());
  return nodes_[ring_[idx].second];
}

bool HashRing::contains(const std::string& node) const {
  return std::find(nodes_.begin(), nodes_.end(), node) != nodes_.end();
}

}  // namespace maabe::cloud
