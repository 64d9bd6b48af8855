// FleetCluster: the fleet-of-fleets.
//
// Many VariantFleet shards, each with its OWN SessionFactory and therefore
// its own diversity draw space. The paper's per-host entropy argument
// compounds across the deployment (Chen et al., PAPERS.md): an attacker who
// burned probes mapping shard A's re-expressions has learned nothing about
// shard B's, must re-discover every shard's network endpoint (the drawn
// network-variation identity), and — because shard A's campaign alert
// gossips to every other shard — meets the rest of the cluster already
// tightened. Callers reach a shard directly through shard(i).
//
// Wiring per shard i:
//   - FleetConfig stamped from the shard template: seed base + 2i, the
//     cluster clock, and SessionSpec::max_unique_keys set to the
//     ClusterKeyspaceBudget allocation (one noisy shard cannot overdraw the
//     global space — its factory refuses at its slice boundary).
//   - on_campaign chains: a locally-raised alert gossips, on the alerting
//     worker's thread, to every other shard in ascending shard order; each
//     receiver's apply_remote_campaign() tightens its adaptive posture
//     without rotating or re-publishing (no gossip loops).
//   - A network identity drawn from its own SessionFactory over
//     ClusterConfig::network_variations (seed base + 2i + 1):
//     network_fingerprint(i) names it, rotate_shard_network(i) redraws it,
//     and its keyspace_bits flow into the composed cluster entropy gauge.
//
// Everything is deterministic under ManualClock + a fixed seed: shard draw
// sequences and gossip delivery order (ascending shard index).
#ifndef NV_CLUSTER_CLUSTER_H
#define NV_CLUSTER_CLUSTER_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/budget.h"
#include "cluster/telemetry.h"
#include "fleet/fleet.h"
#include "obs/trace.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nv::cluster {

struct ClusterConfig {
  unsigned shards = 2;
  /// Template for every shard's FleetConfig. `seed` is the cluster base seed
  /// (unset draws one from std::random_device); each shard's fleet gets
  /// base + 2i and its network factory base + 2i + 1, so shard draw spaces
  /// are disjoint but the whole cluster reproduces from one number. `clock`
  /// and the campaign/adaptive posture are shared by every shard; a set
  /// `on_campaign` hook still fires (after the alert's gossip).
  fleet::FleetConfig shard;
  /// Registry variations forming each shard's drawn NETWORK identity
  /// (endpoint/port-space diversification). Empty = static network (no
  /// endpoint entropy, network_fingerprint reads "static").
  std::vector<std::string> network_variations = {"port-hopping"};
  /// Global unique-key budget split across shards via ClusterKeyspaceBudget;
  /// 0 = unlimited. Must be >= shards (every shard needs at least one key),
  /// and in practice >= shards * pool_size so initial sessions can build.
  std::uint64_t global_key_budget = 0;
  /// Housekeeping sweep period for tick(), measured on the injected clock:
  /// each due sweep re-diversifies (sessions + network identity) every shard
  /// whose adaptive posture is currently TIGHTENED. 0 disables sweeping.
  std::chrono::milliseconds sweep_interval{0};
  /// Structured tracing (obs/trace.h): each shard's fleet records under
  /// trace_scope "shard<i>", and the cluster adds "cluster.gossip"
  /// (publish/deliver) and "cluster.tick" tracks. Null = untraced. Overrides
  /// any ClusterConfig::shard.trace.
  std::shared_ptr<obs::TraceRecorder> trace;
};

/// One tightened shard's share of a tick() housekeeping sweep. The sweep
/// draws each named lane's session at once, but the lanes' workers install
/// them; lanes_flagged + rotations_before let a deterministic driver await
/// sessions_rotated + rotations_failed reaching rotations_before +
/// lanes_flagged before reading fingerprints.
struct ShardSweep {
  unsigned shard = 0;
  /// Lanes rotate_fleet() named for re-diversification this sweep.
  std::size_t lanes_flagged = 0;
  /// The shard's sessions_rotated + rotations_failed when the sweep started.
  std::uint64_t rotations_before = 0;
  /// Network identity redrawn (false when static or endpoint space exhausted).
  bool network_rotated = false;
};

/// What one FleetCluster::tick() did.
struct TickReport {
  std::uint64_t tick = 0;              // ordinal of this tick, 1-based
  bool swept = false;                  // the sweep interval elapsed this tick
  std::vector<ShardSweep> sweeps;      // tightened shards swept (empty unless swept)
};

class FleetCluster {
 public:
  /// Builds every shard (spawning their worker pools) and draws the initial
  /// network identities. Throws std::invalid_argument on a config the shards
  /// or budget reject.
  explicit FleetCluster(ClusterConfig config);
  ~FleetCluster();

  FleetCluster(const FleetCluster&) = delete;
  FleetCluster& operator=(const FleetCluster&) = delete;

  [[nodiscard]] fleet::VariantFleet& shard(unsigned index) { return *fleets_.at(index); }
  [[nodiscard]] const fleet::VariantFleet& shard(unsigned index) const {
    return *fleets_.at(index);
  }
  [[nodiscard]] unsigned shard_count() const noexcept {
    return static_cast<unsigned>(fleets_.size());
  }

  /// Drain every shard (idempotent; called by the destructor).
  void shutdown();

  /// The shard's current drawn network identity, e.g.
  /// "port-hopping{mask=0x9c3a}" — or "static" when network_variations is
  /// empty. An off-cluster attacker must rediscover this after every
  /// rotate_shard_network().
  [[nodiscard]] std::string network_fingerprint(unsigned index) const;

  /// Redraw the shard's network identity (counted as network_rotations).
  /// False when the network keyspace cannot yield a fresh identity.
  bool rotate_shard_network(unsigned index);

  [[nodiscard]] ClusterSnapshot snapshot() const;

  [[nodiscard]] const ClusterKeyspaceBudget& budget() const noexcept { return budget_; }

  /// One cluster housekeeping step, meant to run once per driver tick (after
  /// the injected clock advances): when ClusterConfig::sweep_interval has
  /// elapsed since the last sweep, orders a fleet-wide re-diversification
  /// plus a network-identity redraw on every shard whose adaptive posture is
  /// tightened. Deterministic under ManualClock; records kClusterTick (and
  /// per-shard rotation events) when tracing. Thread-safe, though one driver
  /// thread is the intended caller.
  TickReport tick();

 private:
  /// Hand `origin`'s locally-raised alert to every other shard, in ascending
  /// shard order, on the alerting worker's thread: every delivery lands
  /// before the alerting job's future resolves.
  void gossip(unsigned origin, const fleet::CampaignAlert& alert);

  ClusterConfig config_;
  fleet::ClockFn clock_;
  ClusterKeyspaceBudget budget_;
  ClusterTelemetry telemetry_;  // declared before fleets_: the shards' hooks count here
  std::vector<std::unique_ptr<fleet::VariantFleet>> fleets_;

  /// tick() state.
  util::Mutex tick_mutex_;
  std::uint64_t tick_count_ NV_GUARDED_BY(tick_mutex_) = 0;
  std::chrono::steady_clock::time_point last_sweep_ NV_GUARDED_BY(tick_mutex_){};

  /// Cluster-level trace tracks (0 when untraced).
  std::shared_ptr<obs::TraceRecorder> trace_;
  std::uint32_t gossip_track_ = 0;
  std::uint32_t tick_track_ = 0;

  /// Per-shard network identity machinery (guarded by network_mutex_: the
  /// factories serialize internally, but identity swap + fingerprint read
  /// must be atomic).
  mutable util::Mutex network_mutex_;
  std::vector<std::unique_ptr<fleet::SessionFactory>> network_factories_
      NV_GUARDED_BY(network_mutex_);
  std::vector<std::string> network_identities_ NV_GUARDED_BY(network_mutex_);
  double network_bits_ = 0.0;  // one shard's network entropy; set once at construction

  util::Mutex shutdown_mutex_;
  bool shut_down_ NV_GUARDED_BY(shutdown_mutex_) = false;
};

}  // namespace nv::cluster

#endif  // NV_CLUSTER_CLUSTER_H
