// Fleet-of-fleets: ClusterKeyspaceBudget splitting, FleetCluster wiring —
// and the acceptance scenario: a campaign on shard A tightens shard B via
// gossip BEFORE shard B has seen a single quarantine, deterministically under
// one ManualClock.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/budget.h"
#include "cluster/cluster.h"
#include "experiments/network_diversity.h"
#include "fleet_test_harness.h"

namespace nv::cluster {
namespace {

using fleet::ManualClock;
using fleet::harness::poison_job;
using fleet::harness::uid_spec;

using std::chrono::milliseconds;

// --- ClusterKeyspaceBudget ---------------------------------------------------

TEST(Budget, SplitsEvenlyWithRemainderToLowIndexes) {
  const ClusterKeyspaceBudget budget(10, 3);
  EXPECT_EQ(budget.allocation(0), 4u);
  EXPECT_EQ(budget.allocation(1), 3u);
  EXPECT_EQ(budget.allocation(2), 3u);
  EXPECT_NE(budget.describe().find("10 keys over 3 shards"), std::string::npos);
}

TEST(Budget, UnlimitedAndInvalidConfigurations) {
  const ClusterKeyspaceBudget unlimited(0, 4);
  EXPECT_TRUE(unlimited.unlimited());
  EXPECT_EQ(unlimited.allocation(3), 0u);  // 0 = uncapped
  EXPECT_THROW((void)unlimited.allocation(4), std::out_of_range);
  EXPECT_THROW(ClusterKeyspaceBudget(0, 0), std::invalid_argument);
  // A budget smaller than the shard count starves some shard of its very
  // first key: rejected at construction, not discovered at runtime.
  EXPECT_THROW(ClusterKeyspaceBudget(2, 3), std::invalid_argument);
}

// --- FleetCluster ------------------------------------------------------------

ClusterConfig small_cluster(ManualClock& clock, unsigned shards = 2) {
  ClusterConfig config;
  config.shards = shards;
  config.shard.spec = uid_spec();
  config.shard.pool_size = 2;
  config.shard.queue_capacity = 8;
  config.shard.seed = 0xC1057E4;
  config.shard.campaign.threshold = 3;
  config.shard.campaign.window = milliseconds(10'000);
  config.shard.campaign.rotate_fleet_on_alert = false;
  config.shard.adaptive.enabled = true;
  config.shard.adaptive.arm_rotation = false;
  config.shard.adaptive.tightened_rotation_interval = milliseconds(0);
  config.shard.adaptive.quiet_period = milliseconds(60'000);
  config.shard.clock = clock.fn();
  return config;
}

TEST(FleetClusterTest, ShardsGetDistinctDrawSpacesAndNetworkIdentities) {
  ManualClock clock;
  FleetCluster cluster(small_cluster(clock));
  ASSERT_EQ(cluster.shard_count(), 2u);
  // Disjoint seeds: the two shards' initial sessions differ, as do their
  // drawn network identities.
  EXPECT_NE(cluster.shard(0).live_fingerprints(), cluster.shard(1).live_fingerprints());
  EXPECT_NE(cluster.network_fingerprint(0), cluster.network_fingerprint(1));
  EXPECT_NE(cluster.network_fingerprint(0).find("port-hopping{mask=0x"), std::string::npos);

  const ClusterSnapshot snap = cluster.snapshot();
  EXPECT_EQ(snap.shards, 2u);
  EXPECT_EQ(snap.shards_accepting, 2u);
  EXPECT_EQ(snap.network_bits, 15.0);
  EXPECT_DOUBLE_EQ(snap.shard_spec_bits, 30.0);  // uid-xor
  EXPECT_DOUBLE_EQ(snap.cluster_bits, 2.0 * (30.0 + 15.0));
  EXPECT_NE(snap.describe().find("2 shards"), std::string::npos);
}

TEST(FleetClusterTest, NetworkRotationRedrawsTheShardIdentity) {
  ManualClock clock;
  FleetCluster cluster(small_cluster(clock));
  const std::string before = cluster.network_fingerprint(0);
  ASSERT_TRUE(cluster.rotate_shard_network(0));
  EXPECT_NE(cluster.network_fingerprint(0), before);
  EXPECT_EQ(cluster.snapshot().network_rotations, 1u);
  // The other shard's identity is untouched.
  EXPECT_EQ(cluster.network_fingerprint(1), cluster.snapshot().shard_views[1].network_fingerprint);
}

TEST(FleetClusterTest, StaticNetworkWhenNoNetworkVariations) {
  ManualClock clock;
  ClusterConfig config = small_cluster(clock);
  config.network_variations.clear();
  FleetCluster cluster(config);
  EXPECT_EQ(cluster.network_fingerprint(0), "static");
  EXPECT_FALSE(cluster.rotate_shard_network(0));
  EXPECT_EQ(cluster.snapshot().network_bits, 0.0);
}

TEST(FleetClusterTest, DrainedShardLeavesTheRestServing) {
  ManualClock clock;
  FleetCluster cluster(small_cluster(clock));
  const auto drain = cluster.shard(0).shutdown(milliseconds(1000));
  EXPECT_TRUE(drain.clean);
  EXPECT_EQ(cluster.snapshot().shards_accepting, 1u);

  const auto before = cluster.shard(1).telemetry().snapshot().jobs_completed;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(cluster.shard(1)
                    .submit([](core::NVariantSystem&) {
                      core::RunReport report;
                      report.completed = true;
                      return report;
                    })
                    .get()
                    .ok());
  }
  EXPECT_EQ(cluster.shard(1).telemetry().snapshot().jobs_completed, before + 3);
}

TEST(FleetClusterTest, BudgetIsolatesANoisyShard) {
  // Global budget 6 over 2 shards = 3 keys each. Each shard's two initial
  // sessions cost 2, leaving ONE respawn draw per shard. A quarantine storm
  // on shard 0 exhausts only shard 0's slice; shard 1 keeps its remainder.
  ManualClock clock;
  ClusterConfig config = small_cluster(clock);
  config.global_key_budget = 6;
  FleetCluster cluster(config);

  EXPECT_EQ(cluster.snapshot().keys_total, 6u);
  EXPECT_EQ(cluster.snapshot().keys_remaining, 2u);

  // First poison: respawn burns shard 0's last key. Second: the respawn is
  // refused at the draw site (budget exhausted) and the lane dies.
  (void)cluster.shard(0).submit(poison_job("budget storm")).get();
  (void)cluster.shard(0).submit(poison_job("budget storm")).get();

  const ClusterSnapshot snap = cluster.snapshot();
  EXPECT_TRUE(snap.shard_views[0].exhausted);
  EXPECT_EQ(snap.shard_views[0].shard_keys_remaining, 0u);
  EXPECT_FALSE(snap.shard_views[1].exhausted);
  EXPECT_EQ(snap.shard_views[1].shard_keys_remaining, 1u);
  // And shard 1 still serves.
  EXPECT_TRUE(cluster.shard(1)
                  .submit([](core::NVariantSystem&) {
                    core::RunReport report;
                    report.completed = true;
                    return report;
                  })
                  .get()
                  .ok());
}

// --- The acceptance scenario -------------------------------------------------

TEST(FleetClusterTest, CampaignOnShardZeroTightensEveryShardBeforeTheyAreProbed) {
  // THE issue acceptance test, K = 3: the attacker runs its campaign against
  // shard 0 only. The moment shard 0's correlator raises the alert, gossip
  // must have tightened shards 1 and 2 — which have processed NOTHING — so
  // the attacker arrives at shard B facing a hair-trigger posture it never
  // probed into existence.
  ManualClock clock;
  FleetCluster cluster(small_cluster(clock, 3));
  const unsigned baseline_threshold = cluster.shard(1).campaign_policy().threshold;

  for (int i = 0; i < 3; ++i) {
    (void)cluster.shard(0).submit(poison_job("coordinated probe burst")).get();
  }

  const ClusterSnapshot snap = cluster.snapshot();
  EXPECT_EQ(snap.shard_views[0].fleet.campaign_alerts, 1u);
  EXPECT_EQ(snap.gossip_published, 1u);
  EXPECT_EQ(snap.gossip_delivered, 2u);
  EXPECT_EQ(snap.remote_campaigns_applied, 2u);

  for (unsigned s = 1; s <= 2; ++s) {
    const auto view = snap.shard_views[s];
    EXPECT_EQ(view.fleet.sessions_quarantined, 0u) << "shard " << s << " was never probed";
    EXPECT_EQ(view.fleet.remote_campaigns, 1u) << "shard " << s;
    EXPECT_EQ(view.fleet.policy_tightened, 1u) << "shard " << s;
    ASSERT_NE(cluster.shard(s).adaptive(), nullptr);
    EXPECT_TRUE(cluster.shard(s).adaptive()->tightened()) << "shard " << s;
    EXPECT_LT(cluster.shard(s).campaign_policy().threshold, baseline_threshold)
        << "shard " << s;
  }
}

TEST(FleetClusterTest, GossipTighteningIsDeterministicAcrossRuns) {
  // Same seed, same scripted scenario => byte-identical shard identities and
  // identical tighten accounting, run after run (the TSan/CI replay
  // contract for everything the cluster layer adds).
  const auto run_once = [] {
    ManualClock clock;
    FleetCluster cluster(small_cluster(clock, 3));
    // Each probe names its lane, so which session every respawn replaces
    // does not depend on which idle worker wins the pop.
    for (unsigned i = 0; i < 3; ++i) {
      (void)cluster.shard(0).submit_to(i % 2, poison_job("coordinated probe burst")).get();
    }
    std::vector<std::string> identity;
    for (unsigned s = 0; s < 3; ++s) {
      identity.push_back(cluster.network_fingerprint(s));
      for (const auto& fp : cluster.shard(s).live_fingerprints()) identity.push_back(fp);
      identity.push_back(std::to_string(cluster.shard(s).campaign_policy().threshold));
      identity.push_back(std::to_string(
          cluster.shard(s).telemetry().snapshot().remote_campaigns));
    }
    return identity;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- Experiment smoke --------------------------------------------------------

TEST(NetworkDiversityExperiment, SmallRunIsDeterministicAndInternallyConsistent) {
  experiments::ClusterExperimentConfig config;
  config.shards = 2;
  config.total_lanes = 4;
  config.ticks = 60;
  config.probes_per_tick = 2;
  config.timeline_stride = 10;
  config.seed = 0x5EED;

  const auto a = experiments::run_cluster_experiment(config);
  const auto b = experiments::run_cluster_experiment(config);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.silent_compromises, b.silent_compromises);
  EXPECT_EQ(a.compromised_lane_ticks, b.compromised_lane_ticks);
  EXPECT_EQ(a.quarantines, b.quarantines);
  EXPECT_EQ(a.endpoint_discoveries, b.endpoint_discoveries);
  EXPECT_DOUBLE_EQ(a.attacker_cost, b.attacker_cost);

  // Ledger arithmetic the schema checker also enforces.
  EXPECT_EQ(a.probes, a.payload_probes + a.endpoint_probes);
  EXPECT_EQ(a.endpoint_probes, a.endpoint_discoveries * a.endpoint_discovery_cost);
  EXPECT_GE(a.endpoint_discoveries, 2u);  // at least first contact per shard
  EXPECT_GT(a.silent_compromises, 0u);
  EXPECT_GT(a.quarantines, 0u);
  EXPECT_EQ(a.shards, 2u);
  EXPECT_EQ(a.lanes_per_shard, 2u);
  EXPECT_EQ(a.payload_keys, 16u);  // address-partitioning's real space
  EXPECT_EQ(a.endpoint_discovery_cost, 1ULL << 14);  // port-hopping: 2^(15-1)
}

TEST(NetworkDiversityExperiment, RejectsUnevenLaneSplits) {
  experiments::ClusterExperimentConfig config;
  config.shards = 3;
  config.total_lanes = 8;
  EXPECT_THROW((void)experiments::run_cluster_experiment(config), std::invalid_argument);
}

}  // namespace
}  // namespace nv::cluster
