// Consistent-hash ring for cluster file placement (DESIGN.md §13).
//
// Each node owns 64 positions on a 64-bit ring (the first 8 bytes
// of SHA-256 over "<node>#<i>"); a file lands at the position of its
// file_id and its replica set is the next `replication` distinct nodes
// clockwise. Placement is static for a fixed membership: node failure
// changes who *coordinates* an operation (the first alive replica), not
// where the file lives, so the hints owed to a recovered node name
// exactly the files it still owns.
//
// Virtual nodes smooth the load: with 64 vnodes per node the largest
// per-node share of a uniform keyspace stays within a small factor of
// the mean, which the ring tests assert.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace maabe::cloud {

class HashRing {
 public:
  HashRing() = default;

  /// `replication` is clamped to [1, nodes.size()]. Node names must be
  /// unique and non-empty; throws SchemeError otherwise.
  HashRing(std::vector<std::string> nodes, size_t replication);

  const std::vector<std::string>& nodes() const { return nodes_; }
  size_t replication() const { return replication_; }

  /// Every node, ordered by first appearance walking clockwise from the
  /// key's position. The first replication() entries are the replica
  /// set; the remainder is the failover order.
  std::vector<std::string> preference_order(const std::string& key) const;

  /// The first replication() nodes of preference_order.
  std::vector<std::string> replicas_for(const std::string& key) const;

  /// The first node of preference_order.
  const std::string& primary_for(const std::string& key) const;

  bool contains(const std::string& node) const;

  /// Ring position of an arbitrary label: big-endian u64 from the first
  /// 8 bytes of SHA-256. Exposed for tests.
  static uint64_t position(const std::string& label);

 private:
  std::vector<std::string> nodes_;
  size_t replication_ = 1;
  /// Sorted (position, node index). Ties sort by index, so the walk is
  /// deterministic even on (astronomically unlikely) hash collisions.
  std::vector<std::pair<uint64_t, uint32_t>> ring_;
};

}  // namespace maabe::cloud
