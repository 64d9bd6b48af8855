// Multi-shard attacker-cost experiments: what does network-level diversity
// plus cross-shard campaign gossip buy, at FIXED total lane count and FIXED
// total payload keyspace?
//
// The setup is a REAL FleetCluster on one ManualClock — K VariantFleet
// shards, each with its own SessionFactory draw space and its own drawn
// network identity (endpoint/port-space diversification from the registry's
// network variations) — driven by the same scripted deterministic attacker
// as experiments/population_curves.h, extended with the two costs sharding
// adds:
//
//   - PAYLOAD probes are per shard: shard draw spaces are independent, so
//     the attacker keeps a separate probe serial per shard and pays the
//     expected keyspace-S guessing cost against each shard separately
//     (every S-th probe ON THAT SHARD silently compromises its target).
//   - ENDPOINT discovery is per (shard, network epoch): before the first
//     request ever reaches a shard — and again after every network-identity
//     rotation — the attacker pays the expected scan cost E/2 = 2^(bits-1)
//     of the shard's composed network-variation keyspace, charged as a lump
//     of probes that never touch the fleet (the scan happens off-host).
//
//   The defensive feedback loop under test: a campaign alert raised on the
//   probed shard gossips to every other shard (synchronously, delay 0), so
//   shards the attacker has NOT yet reached tighten their adaptive posture
//   first — `pre_warned_shards` counts them — and the defender's periodic
//   sweep re-diversifies TIGHTENED shards only (sessions AND network
//   identity), forcing the attacker back through endpoint discovery.
//
// Sweeping the shard count at fixed total lanes yields the
// attacker-cost-vs-shards curve archived as BENCH_network_diversity.json
// (schema network_diversity/v1): cost must rise STRICTLY with shard count.
// Everything runs on manual time with a fixed seed, and every probe is a
// synchronous request to the lane the attacker chose, so a given config
// replays byte-identically.
#ifndef NV_EXPERIMENTS_NETWORK_DIVERSITY_H
#define NV_EXPERIMENTS_NETWORK_DIVERSITY_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/adaptive.h"
#include "fleet/ops.h"
#include "obs/trace.h"

namespace nv::experiments {

struct ClusterExperimentConfig {
  /// Shard count K. `total_lanes` must divide evenly across it: the sweep
  /// holds aggregate capacity fixed while K varies, so the curves isolate
  /// the sharding effect.
  unsigned shards = 2;
  unsigned total_lanes = 8;
  /// Per-shard session recipe (same contract as the population experiment:
  /// uid-xor rides along so the composed space never exhausts mid-run).
  std::vector<std::string> variations = {"address-partitioning", "uid-xor"};
  /// The variation whose per-shard keyspace S the payload probes guess at;
  /// must be installed and carry 1..20 realizable bits.
  std::string probed_variation = "address-partitioning";
  /// Each shard's drawn network identity. The endpoint-discovery lump is
  /// 2^(composed_bits - 1) probes; empty = static network, discovery free.
  std::vector<std::string> network_variations = {"port-hopping"};
  std::uint64_t seed = 0xC0FFEE;
  std::chrono::milliseconds tick{10};
  unsigned ticks = 400;
  unsigned probes_per_tick = 4;
  /// Global unique-key budget split across shards (FleetCluster budgeting);
  /// generous enough that no shard exhausts mid-run at the default grid.
  std::uint64_t global_key_budget = 65'536;
  /// Campaign baseline: small threshold, short window, rotation NOT armed —
  /// re-diversification is the DRIVER's lever (below), so runs at different
  /// K stay structurally comparable.
  fleet::CampaignPolicy campaign{/*threshold=*/3U,
                                 /*window=*/std::chrono::milliseconds(2'000),
                                 /*rotate_fleet_on_alert=*/false};
  /// Adaptive posture: tighten on (local or gossiped) alerts, never rotate
  /// on its own (arm_rotation off, no tightened interval), and a quiet
  /// period longer than the whole run so tightening is one-way. The posture
  /// bit is what the driver keys its sweep on.
  fleet::AdaptivePolicyConfig adaptive = [] {
    fleet::AdaptivePolicyConfig cfg;
    cfg.enabled = true;
    cfg.arm_rotation = false;
    cfg.tightened_rotation_interval = std::chrono::milliseconds(0);
    cfg.quiet_period = std::chrono::milliseconds(60'000);
    return cfg;
  }();
  /// Every this many ticks the defender sweeps the cluster and re-diversifies
  /// every TIGHTENED shard: rotate_fleet() plus a network-identity redraw.
  unsigned defender_rotate_ticks = 17;
  /// Keep every k-th tick in the emitted timeline (JSON size bound).
  unsigned timeline_stride = 8;
  /// Optional structured tracing: threaded into the FleetCluster (and from
  /// there every shard, factory, and rendezvous path) so a bench run can
  /// export a Chrome/Perfetto trace of the whole campaign. Null = untraced;
  /// tracing does not perturb the experiment's deterministic numbers.
  std::shared_ptr<obs::TraceRecorder> trace;
};

struct ClusterTimelinePoint {
  std::uint64_t t_ms = 0;
  double compromised_fraction = 0.0;   // held lanes / total lanes
  std::uint64_t probes = 0;            // cumulative payload + endpoint spend
  std::uint64_t endpoint_discoveries = 0;
  std::uint64_t rotations = 0;         // cumulative session rotations, all shards
};

/// One grid point: a full run at one shard count.
struct ClusterCurve {
  std::uint64_t shards = 0;
  std::uint64_t lanes_per_shard = 0;
  // Payload keyspace (per shard — registry-reported, real entropy units).
  std::string probed_variation;
  double payload_bits = 0.0;
  std::uint64_t payload_keys = 0;  // 2^payload_bits == the realized S
  // Network keyspace (per shard, composed over network_variations).
  double network_bits = 0.0;
  std::uint64_t endpoint_discovery_cost = 0;  // 2^(network_bits - 1), 0 if static
  // Attacker ledger.
  std::uint64_t endpoint_discoveries = 0;
  std::uint64_t endpoint_probes = 0;  // discoveries x discovery cost
  std::uint64_t payload_probes = 0;
  std::uint64_t probes = 0;  // endpoint_probes + payload_probes
  std::uint64_t silent_compromises = 0;
  std::uint64_t compromised_lane_ticks = 0;
  double mean_compromised_fraction = 0.0;
  /// THE headline: probes paid per compromised lane-tick held. Must rise
  /// strictly with `shards` at fixed total lanes + total payload keyspace.
  double attacker_cost = 0.0;
  // Defender ledger (summed across shards / read off the ClusterSnapshot).
  std::uint64_t quarantines = 0;
  std::uint64_t rotations = 0;
  std::uint64_t network_rotations = 0;
  std::uint64_t campaign_alerts = 0;
  std::uint64_t remote_campaigns = 0;
  std::uint64_t policy_tightened = 0;
  /// Shards whose posture tightened BEFORE their own first quarantine — the
  /// gossip pre-warning effect. 0 when shards == 1 (nobody to warn).
  std::uint64_t pre_warned_shards = 0;
  std::uint64_t gossip_published = 0;
  std::uint64_t gossip_delivered = 0;
  std::uint64_t keys_total = 0;
  std::uint64_t keys_remaining = 0;
  std::vector<ClusterTimelinePoint> timeline;
};

/// Run one grid point. Deterministic for a fixed config.
[[nodiscard]] ClusterCurve run_cluster_experiment(const ClusterExperimentConfig& config);

/// Serialize a shard-count sweep into the BENCH_network_diversity.json
/// document, schema "network_diversity/v1". `grid` must be ordered by
/// ascending shard count; tools/check_network_diversity.py verifies the
/// schema, the internal ledger arithmetic, and the strict attacker-cost
/// monotonicity in shard count on exactly this document.
[[nodiscard]] std::string cluster_curves_to_json(const ClusterExperimentConfig& base,
                                                 const std::vector<ClusterCurve>& grid,
                                                 bool quick);

}  // namespace nv::experiments

#endif  // NV_EXPERIMENTS_NETWORK_DIVERSITY_H
