// Entropy-aware keyspace accounting, end to end: per-variation
// keyspace_bits() estimates, their additive composition through
// DiversitySuite / NVariantSystem, the SessionFactory's keys-total /
// keys-remaining ledger (including the 16-stride address-partitioning space
// whose exhaustion the factory's observed draw count must match exactly),
// and the fleet's rotation contract: a rotation order draws each lane's
// session at once, in lane order, the lane's worker installs it, and every
// lane an order names resolves even as the last key goes — plus the
// low-keyspace rotation backoff, on ManualClock time, no sleeps.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/diversity_suite.h"
#include "core/nvariant_system.h"
#include "core/variation_registry.h"
#include "fleet/fleet.h"
#include "fleet/jobs.h"
#include "fleet/ops.h"
#include "fleet/session_factory.h"
#include "fleet_test_harness.h"
#include "variants/address_partitioning.h"
#include "variants/registry.h"

namespace nv::fleet {
namespace {

using harness::uid_spec;
using harness::wait_until;

using std::chrono::milliseconds;

core::VariationPtr make(std::string_view name, const core::VariationParams& params = {}) {
  return variants::make_builtin(name, params);
}

// --- Per-variation estimates -------------------------------------------------

TEST(KeyspaceBits, BuiltinVariationsReportTheirDrawSpaces) {
  // uid-xor: bit 30 pinned, 30 random bits.
  EXPECT_DOUBLE_EQ(make("uid-xor")->keyspace_bits(2), 30.0);
  // address-partitioning: 16 stride multiples of 256 MiB.
  EXPECT_DOUBLE_EQ(make("address-partitioning")->keyspace_bits(2), 4.0);
  // instruction-tagging: base tag in [1, 0xFF-(N-1)].
  EXPECT_NEAR(make("instruction-tagging")->keyspace_bits(2), std::log2(254.0), 1e-12);
  EXPECT_NEAR(make("instruction-tagging")->keyspace_bits(4), std::log2(252.0), 1e-12);
  // stack-reversal draws nothing: a zero-entropy (single-key) variation.
  EXPECT_DOUBLE_EQ(make("stack-reversal")->keyspace_bits(2), 0.0);
}

TEST(KeyspaceBits, ExtendedPartitioningCountsObservableLayoutsNotSeeds) {
  // The factory draws a 64-bit seed, but an attacker observes only the
  // DERIVED per-variant page offsets — (max_offset/4096 - 1) choices per
  // offset-carrying variant (variant 0 stays at the partition base). The
  // ledger counts that observable space, so keys_remaining is honest.
  const auto ext = make("extended-address-partitioning");
  EXPECT_NEAR(ext->keyspace_bits(2), std::log2(255.0), 1e-12);
  EXPECT_NEAR(ext->keyspace_bits(3), 2.0 * std::log2(255.0), 1e-12);

  SessionSpec spec;
  spec.n_variants = 2;
  spec.variations = {"extended-address-partitioning"};
  SessionFactory factory(spec, 3, variants::builtin_registry());
  EXPECT_EQ(factory.keyspace().keys_total, 255u);
  auto session = factory.make_session();
  ASSERT_TRUE(session.has_value());
  // The diversity key is the derived layout, not the seed.
  EXPECT_NE(session->diversity_key.find("offsets=0x"), std::string::npos);
  EXPECT_FALSE(factory.keyspace().exhausted());
}

TEST(KeyspaceAccounting, ExtendedPartitioningLedgerCollapsesSeedCollisions) {
  // Two seeds that derive the SAME layout are the same key. Shadow the
  // builtin with a two-layout jitter space (max_offset = 3 pages): fresh
  // 64-bit seeds keep arriving, but after both layouts are issued the third
  // session must be refused — distinct fingerprints, duplicate observables.
  core::VariationRegistry registry;
  registry.add(
      "extended-address-partitioning", "two-layout jitter for the ledger test",
      [](const core::VariationParams& params)
          -> util::Expected<core::VariationPtr, std::string> {
        const auto seed = params.get_u64("seed", 1234);
        if (!seed) return util::Unexpected{seed.error()};
        return core::VariationPtr{std::make_shared<variants::ExtendedAddressPartitioning>(
            0x80000000ULL, 3ULL * 4096, *seed)};
      });

  SessionSpec spec;
  spec.n_variants = 2;
  spec.variations = {"extended-address-partitioning"};
  SessionFactory factory(spec, 0xF00D, registry);
  ASSERT_EQ(factory.keyspace().keys_total, 2u);

  ASSERT_TRUE(factory.make_session().has_value());
  ASSERT_TRUE(factory.make_session().has_value());
  EXPECT_TRUE(factory.keyspace().exhausted());
  auto third = factory.make_session();
  ASSERT_FALSE(third.has_value());
  EXPECT_NE(third.error().find("duplicate diversity draw"), std::string::npos);
  EXPECT_EQ(factory.unique_keys_issued(), 2u);
}

TEST(KeyspaceAccounting, BudgetCapRefusesDrawsAtTheAllocationBoundary) {
  // Cluster budgeting: max_unique_keys caps a 16-key natural space at 3.
  // The gauge reports the allocation, exhaustion fires at its boundary, and
  // the refusal is systematic (no redraw can help).
  SessionSpec spec;
  spec.n_variants = 2;
  spec.variations = {"address-partitioning"};
  spec.max_unique_keys = 3;
  SessionFactory factory(spec, 0xBEEF, variants::builtin_registry());
  EXPECT_EQ(factory.keyspace().keys_total, 3u);

  for (unsigned draw = 1; draw <= 3; ++draw) {
    ASSERT_TRUE(factory.make_session().has_value()) << "draw " << draw;
  }
  EXPECT_TRUE(factory.keyspace().exhausted());
  auto fourth = factory.make_session();
  ASSERT_FALSE(fourth.has_value());
  EXPECT_NE(fourth.error().find("keyspace budget exhausted"), std::string::npos);
  EXPECT_EQ(factory.unique_keys_issued(), 3u);
}

// --- Composition -------------------------------------------------------------

TEST(KeyspaceBits, SuiteCompositionAddsBitsAndZeroEntropyMembersAddNothing) {
  auto suite =
      core::DiversitySuite::compose(2, {make("address-partitioning"), make("uid-xor")});
  ASSERT_TRUE(suite.has_value());
  EXPECT_DOUBLE_EQ(suite->keyspace_bits(), 34.0);  // 4 + 30

  // A zero-entropy variation composes as a multiplicative identity.
  auto with_zero = core::DiversitySuite::compose(
      2, {make("address-partitioning"), make("stack-reversal")});
  ASSERT_TRUE(with_zero.has_value());
  EXPECT_DOUBLE_EQ(with_zero->keyspace_bits(), 4.0);

  // Redundancy alone (the paper's configuration 2) is a single-key space.
  EXPECT_DOUBLE_EQ(core::DiversitySuite::identical(3).keyspace_bits(), 0.0);
}

TEST(KeyspaceBits, SealedSystemExposesTheComposedEntropy) {
  auto suite =
      core::DiversitySuite::compose(2, {make("uid-xor"), make("instruction-tagging")});
  ASSERT_TRUE(suite.has_value());
  auto system = core::NVariantSystem::Builder().suite(*std::move(suite)).build();
  EXPECT_NEAR(system->keyspace_bits(), 30.0 + std::log2(254.0), 1e-9);
}

// --- SessionFactory accounting ----------------------------------------------

TEST(KeyspaceAccounting, RegistryDefaultSpecsAreUntracked) {
  SessionSpec spec = uid_spec();
  spec.randomize = false;
  SessionFactory factory(spec, 7, variants::builtin_registry());
  const KeyspaceAccount account = factory.keyspace();
  EXPECT_FALSE(account.tracked);
  EXPECT_EQ(account.keys_total, 0u);
  EXPECT_FALSE(account.exhausted());
  EXPECT_NE(account.describe().find("untracked"), std::string::npos);
}

TEST(KeyspaceAccounting, ZeroEntropySpecIsASingleKeySpace) {
  // stack-reversal under randomize: the factory draws nothing, so exactly ONE
  // unique diversity key exists — the second session would repeat the
  // reexpression the first already exposed.
  SessionSpec spec;
  spec.n_variants = 2;
  spec.variations = {"stack-reversal"};
  SessionFactory factory(spec, 7, variants::builtin_registry());
  EXPECT_EQ(factory.keyspace().keys_total, 1u);
  EXPECT_EQ(factory.keyspace().keys_remaining, 1u);

  ASSERT_TRUE(factory.make_session().has_value());
  EXPECT_TRUE(factory.keyspace().exhausted());
  auto second = factory.make_session();
  ASSERT_FALSE(second.has_value());
  EXPECT_NE(second.error().find("duplicate diversity draw"), std::string::npos);
}

TEST(KeyspaceAccounting, SixteenStrideExhaustionMatchesObservedDraws) {
  // The acceptance anchor: address-partitioning's reported 4-bit space must
  // equal the number of unique draws the factory actually delivers — 16
  // sessions, with keys_remaining counting down in lockstep, then an
  // explicit exhaustion error.
  SessionSpec spec;
  spec.n_variants = 2;
  spec.variations = {"address-partitioning"};
  SessionFactory factory(spec, 0xBEEF, variants::builtin_registry());
  ASSERT_EQ(factory.keyspace().keys_total, 16u);

  for (unsigned draw = 1; draw <= 16; ++draw) {
    ASSERT_TRUE(factory.make_session().has_value()) << "draw " << draw;
    EXPECT_EQ(factory.keyspace().keys_issued, draw);
    EXPECT_EQ(factory.keyspace().keys_remaining, 16u - draw);
  }
  EXPECT_TRUE(factory.keyspace().exhausted());
  EXPECT_FALSE(factory.make_session().has_value());
  EXPECT_EQ(factory.unique_keys_issued(), 16u);  // the 17th burned no key
}

// --- Fleet posture -----------------------------------------------------------

TEST(FleetKeyspace, GaugesMirrorTheFactoryAccount) {
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 2;
  config.queue_capacity = 8;
  config.seed = 0x6A6E;
  VariantFleet fleet(config);

  const FleetSnapshot snap = fleet.telemetry().snapshot();
  EXPECT_EQ(snap.keys_total, 1ULL << 30);
  EXPECT_EQ(snap.keys_remaining, (1ULL << 30) - 2);  // two initial draws
  EXPECT_NE(snap.describe().find("keys remaining"), std::string::npos);
}

/// Quarantine `count` sessions, each burning one key on its respawn.
void burn_keys(VariantFleet& fleet, int count) {
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(fleet.submit(harness::poison_job("burn a key")).get().session_quarantined);
  }
}

std::uint64_t rotations_resolved(const VariantFleet& fleet) {
  const FleetSnapshot snap = fleet.telemetry().snapshot();
  return snap.sessions_rotated + snap.rotations_failed;
}

TEST(FleetKeyspace, LowWatermarkThrottlesRotationToTheBackoffInterval) {
  // The watermark is the pool size: at 2 keys left, one more fleet-wide
  // rotation would drain the space, so sweeps are spaced a second apart on
  // the injected clock. Lane 1 stays pinned with an earlier order's draw
  // waiting, so each low-water sweep names lane 0 alone and spends one key.
  ManualClock clock;
  FleetConfig config;
  config.spec.n_variants = 2;
  config.spec.variations = {"address-partitioning"};
  config.pool_size = 2;
  config.queue_capacity = 8;
  config.seed = 0x10;
  config.clock = clock.fn();
  VariantFleet fleet(config);
  burn_keys(fleet, 10);  // 2 initial draws + 10 respawns: 4 of 16 keys left
  ASSERT_EQ(fleet.keyspace().keys_remaining, 4u);

  harness::GatedJob pin;
  auto pinned = fleet.submit_to(1, pin.job());
  pin.wait_started();
  ASSERT_EQ(fleet.rotate_fleet(), 2u);  // not yet low: both lanes draw
  ASSERT_EQ(fleet.keyspace().keys_remaining, 2u);
  ASSERT_TRUE(
      wait_until([&] { return fleet.telemetry().snapshot().sessions_rotated == 1u; }));

  // First rotation under low water is admitted; the next must wait out the
  // backoff on the injected clock.
  ASSERT_EQ(fleet.rotate_fleet(), 1u);
  ASSERT_TRUE(
      wait_until([&] { return fleet.telemetry().snapshot().sessions_rotated == 2u; }));
  EXPECT_EQ(fleet.rotate_fleet(), 0u);
  clock.advance(milliseconds(999));
  EXPECT_EQ(fleet.rotate_fleet(), 0u);
  EXPECT_EQ(fleet.keyspace().keys_remaining, 1u);

  clock.advance(milliseconds(1));
  ASSERT_EQ(fleet.rotate_fleet(), 1u);
  ASSERT_TRUE(
      wait_until([&] { return fleet.telemetry().snapshot().sessions_rotated == 3u; }));
  pin.release();
  EXPECT_TRUE(pinned.get().ok());
  ASSERT_TRUE(
      wait_until([&] { return fleet.telemetry().snapshot().sessions_rotated == 4u; }));
  EXPECT_EQ(fleet.telemetry().snapshot().rotations_failed, 0u);
  EXPECT_TRUE(fleet.keyspace().exhausted());
}

TEST(FleetRotationOrder, DrawsEachLaneAtTheOrderInLaneOrder) {
  // A rotation order draws every named lane's session at once, in ascending
  // lane order; the sessions wait until each lane's own job ends. So which
  // draw a lane gets is fixed by the order, not by which worker wakes first.
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 2;
  config.queue_capacity = 8;
  config.seed = 0xDEAD11;
  VariantFleet fleet(config);
  const auto before = fleet.live_fingerprints();
  ASSERT_EQ(fleet.keyspace().keys_issued, 2u);

  harness::GatedJob first;
  harness::GatedJob second;
  auto first_outcome = fleet.submit_to(0, first.job());
  auto second_outcome = fleet.submit_to(1, second.job());
  first.wait_started();
  second.wait_started();
  ASSERT_EQ(fleet.rotate_fleet(), 2u);
  EXPECT_EQ(fleet.keyspace().keys_issued, 4u);     // drawn already
  EXPECT_EQ(fleet.live_fingerprints(), before);    // not yet installed
  EXPECT_EQ(fleet.telemetry().snapshot().sessions_rotated, 0u);

  // Release lane 1 first: it still installs the later draw.
  second.release();
  EXPECT_TRUE(second_outcome.get().ok());
  first.release();
  EXPECT_TRUE(first_outcome.get().ok());
  ASSERT_TRUE(
      wait_until([&] { return fleet.telemetry().snapshot().sessions_rotated == 2u; }));
  const JobOutcome lane0 = fleet.submit_to(0, jobs::uid_churn(1)).get();
  const JobOutcome lane1 = fleet.submit_to(1, jobs::uid_churn(1)).get();
  EXPECT_TRUE(lane0.ok());
  EXPECT_TRUE(lane1.ok());
  EXPECT_EQ(lane0.session_id, 2u);
  EXPECT_EQ(lane1.session_id, 3u);
  EXPECT_EQ(fleet.keyspace().keys_issued, 4u);
  EXPECT_EQ(fleet.telemetry().snapshot().rotations_failed, 0u);
}

TEST(FleetRotationOrder, AnOrderedLaneThatIsQuarantinedDrawsOnce) {
  // The order drew lane 0's next session while its job was still running.
  // When that job alarms, the waiting draw — which no job has seen — is the
  // replacement: no second draw, and it counts as the ordered rotation.
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 2;
  config.queue_capacity = 8;
  config.seed = 0xDEAD22;
  VariantFleet fleet(config);
  const auto before = fleet.live_fingerprints();

  harness::GatedJob probe;
  auto outcome = fleet.submit_to(0, probe.poison());
  probe.wait_started();
  ASSERT_EQ(fleet.rotate_fleet(), 2u);
  EXPECT_EQ(fleet.keyspace().keys_issued, 4u);
  // Lane 1 is idle and installs its draw at once; lane 0 is pinned.
  ASSERT_TRUE(
      wait_until([&] { return fleet.telemetry().snapshot().sessions_rotated == 1u; }));
  EXPECT_EQ(fleet.live_fingerprints()[0], before[0]);

  probe.release();
  const JobOutcome result = outcome.get();
  EXPECT_TRUE(result.session_quarantined);
  EXPECT_EQ(fleet.keyspace().keys_issued, 4u);  // the quarantine drew nothing

  const auto log = fleet.quarantine_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].fingerprint, before[0]);  // what the attacker faced
  EXPECT_EQ(log[0].replacement_id, 2u);      // lane 0's draw at the order
  EXPECT_EQ(log[0].replacement_fingerprint.rfind("session-2[", 0), 0u)
      << log[0].replacement_fingerprint;
  EXPECT_EQ(fleet.live_fingerprints()[0], log[0].replacement_fingerprint);
  const FleetSnapshot snap = fleet.telemetry().snapshot();
  EXPECT_EQ(snap.sessions_quarantined, 1u);
  EXPECT_EQ(snap.sessions_respawned, 0u);
  EXPECT_EQ(snap.sessions_rotated, 2u);
  EXPECT_EQ(snap.rotations_failed, 0u);
  EXPECT_TRUE(fleet.submit(jobs::uid_churn(3)).get().ok());
}

TEST(FleetRotationOrder, EveryNamedLaneResolvesAsTheLastKeyGoes) {
  // One key left, lane 0 running a probe, then a fleet-wide order: lane 0
  // draws the last key and lane 1's draw fails at once. When the probe
  // alarms, lane 0's waiting draw replaces the burned session, so the lane
  // keeps serving and both named lanes resolve.
  ManualClock clock;
  FleetConfig config;
  config.spec.n_variants = 2;
  config.spec.variations = {"address-partitioning"};
  config.pool_size = 2;
  config.queue_capacity = 8;
  config.seed = 0x1A57;
  config.clock = clock.fn();
  VariantFleet fleet(config);
  burn_keys(fleet, 13);  // 2 initial draws + 13 respawns: 1 of 16 keys left
  ASSERT_EQ(fleet.keyspace().keys_remaining, 1u);
  const std::uint64_t resolved_before = rotations_resolved(fleet);

  harness::GatedJob probe;
  auto outcome = fleet.submit_to(0, probe.poison());
  probe.wait_started();
  ASSERT_EQ(fleet.rotate_fleet(), 2u);
  EXPECT_EQ(fleet.telemetry().snapshot().rotations_failed, 1u);  // lane 1, at once

  probe.release();
  EXPECT_TRUE(outcome.get().session_quarantined);
  EXPECT_EQ(rotations_resolved(fleet), resolved_before + 2);
  EXPECT_EQ(fleet.telemetry().snapshot().sessions_rotated, 1u);
  EXPECT_TRUE(fleet.keyspace().exhausted());
  const JobOutcome served = fleet.submit_to(0, jobs::uid_churn(1)).get();
  EXPECT_TRUE(served.ok()) << served.error;
  EXPECT_TRUE(fleet.submit_to(1, jobs::uid_churn(1)).get().ok());
}

}  // namespace
}  // namespace nv::fleet
