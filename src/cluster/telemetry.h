// Cluster-level observability: ClusterTelemetry holds the cluster's own
// counters (gossip, network rotations); FleetCluster::snapshot() folds them
// together with every shard's FleetSnapshot and the keyspace ledgers into
// one ClusterSnapshot.
//
// Every ClusterSnapshot field is documented in docs/TELEMETRY.md —
// tools/check_docs.py parses this struct and fails CI on an undocumented
// counter, the same contract FleetSnapshot lives under.
#ifndef NV_CLUSTER_TELEMETRY_H
#define NV_CLUSTER_TELEMETRY_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/telemetry.h"

namespace nv::cluster {

/// One shard's slice of the cluster view: identity + health bits + its full
/// fleet snapshot. (Not FIELD_RE-parsed: per-shard semantics are the fleet
/// glossary's; only the cluster-level aggregates below need their own docs.)
struct ShardSnapshot {
  unsigned shard = 0;
  bool accepting = true;
  bool exhausted = false;
  std::string network_fingerprint;
  std::uint64_t shard_keys_total = 0;
  std::uint64_t shard_keys_remaining = 0;
  fleet::FleetSnapshot fleet;
};

/// One coherent view of the whole cluster.
struct ClusterSnapshot {
  std::uint64_t shards = 0;
  std::uint64_t shards_accepting = 0;
  std::uint64_t shards_exhausted = 0;
  std::uint64_t gossip_published = 0;
  std::uint64_t gossip_delivered = 0;
  std::uint64_t remote_campaigns_applied = 0;  // sum of shard remote_campaigns
  std::uint64_t network_rotations = 0;         // shard network identities redrawn

  // Composed entropy gauges (bits add across independent draws).
  double shard_spec_bits = 0.0;     // one shard's session-spec entropy
  double network_bits = 0.0;        // one shard's network-variation entropy
  double cluster_bits = 0.0;        // shards x (spec + network) bits
  std::uint64_t keys_total = 0;     // summed budget-capped shard totals
  std::uint64_t keys_remaining = 0; // summed shard remainders

  std::vector<ShardSnapshot> shard_views;

  [[nodiscard]] std::string describe() const;
};

/// The cluster's own counters (shard fleets keep theirs in FleetTelemetry).
class ClusterTelemetry {
 public:
  void note_gossip_published() noexcept {
    gossip_published_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_gossip_delivered() noexcept {
    gossip_delivered_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_network_rotation() noexcept {
    network_rotations_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t gossip_published() const noexcept {
    return gossip_published_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t gossip_delivered() const noexcept {
    return gossip_delivered_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t network_rotations() const noexcept {
    return network_rotations_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> gossip_published_{0};
  std::atomic<std::uint64_t> gossip_delivered_{0};
  std::atomic<std::uint64_t> network_rotations_{0};
};

}  // namespace nv::cluster

#endif  // NV_CLUSTER_TELEMETRY_H
