// Entropy-aware keyspace accounting, end to end: per-variation
// keyspace_bits() estimates, their additive composition through
// DiversitySuite / NVariantSystem, the SessionFactory's keys-total /
// keys-remaining ledger (including the 16-stride address-partitioning space
// whose exhaustion the factory's observed draw count must match exactly),
// and the fleet's exhaustion posture: low-keyspace rotation backoff and the
// rotation deadline's quarantine-style swap under a too-slow job — all on
// ManualClock time, no sleeps.
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

TEST(FleetKeyspace, LowWatermarkThrottlesRotationToTheBackoffInterval) {
  ManualClock clock;
  FleetConfig config;
  config.spec.n_variants = 2;
  config.spec.variations = {"address-partitioning"};
  config.pool_size = 2;
  config.queue_capacity = 8;
  config.seed = 0x10;
  config.keyspace_low_watermark = 16;  // the whole space counts as low
  config.rotation_backoff = milliseconds(1000);
  config.clock = clock.fn();
  VariantFleet fleet(config);

  // First rotation under low water is admitted; the next must wait out the
  // backoff on the injected clock.
  ASSERT_EQ(fleet.rotate_fleet(), 2u);
  ASSERT_TRUE(
      wait_until([&] { return fleet.telemetry().snapshot().sessions_rotated == 2u; }));
  EXPECT_EQ(fleet.rotate_fleet(), 0u);
  EXPECT_EQ(fleet.rotate_fleet(), 0u);

  clock.advance(milliseconds(1000));
  ASSERT_EQ(fleet.rotate_fleet(), 2u);
  ASSERT_TRUE(
      wait_until([&] { return fleet.telemetry().snapshot().sessions_rotated == 4u; }));
  EXPECT_EQ(fleet.telemetry().snapshot().rotations_failed, 0u);
}

TEST(FleetKeyspace, RotationDeadlineSwapsTheSessionUnderATooSlowJob) {
  // ROADMAP follow-on: lazy rotation let a long-running job pin its lane's
  // stale reexpression indefinitely. With a rotation deadline, the flag that
  // outlives it force-installs the replacement while the job keeps running
  // against the (parked) old session.
  ManualClock clock;
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 2;
  config.queue_capacity = 8;
  config.seed = 0xDEAD11;
  config.rotation_deadline = milliseconds(5000);
  config.clock = clock.fn();
  VariantFleet fleet(config);
  const auto before = fleet.live_fingerprints();

  // Pin BOTH lanes mid-job, then order a fleet-wide rotation.
  harness::GatedJob first;
  harness::GatedJob second;
  auto first_outcome = fleet.submit(first.job());
  auto second_outcome = fleet.submit(second.job());
  first.wait_started();
  second.wait_started();
  ASSERT_EQ(fleet.rotate_fleet(), 2u);

  // Deadline not reached: the stale sessions stay pinned.
  EXPECT_EQ(fleet.poll_adaptive(), 0u);
  EXPECT_EQ(fleet.live_fingerprints(), before);

  // Past the deadline the operator poll force-rotates both lanes even though
  // their jobs are still running.
  clock.advance(milliseconds(5000));
  EXPECT_EQ(fleet.poll_adaptive(), 2u);
  const auto after = fleet.live_fingerprints();
  EXPECT_NE(after[0], before[0]);
  EXPECT_NE(after[1], before[1]);
  EXPECT_EQ(fleet.telemetry().snapshot().sessions_rotated, 2u);

  // The displaced sessions stay alive until their jobs finish — cleanly.
  first.release();
  second.release();
  EXPECT_TRUE(first_outcome.get().ok());
  EXPECT_TRUE(second_outcome.get().ok());
  EXPECT_TRUE(fleet.submit(jobs::uid_churn(3)).get().ok());
  EXPECT_EQ(fleet.live_fingerprints(), after);  // clean jobs don't re-rotate
}

TEST(FleetKeyspace, IdleFleetEnforcesRotationDeadlineOnClockAdvance) {
  // Regression: the deadline used to be checked only inside poll_adaptive()
  // and job completion, so an idle fleet with no operator tick never
  // enforced it — a pinned stale session outlived its deadline for as long
  // as nobody happened to poll. notify_time_advanced() now enforces it, so
  // subscribing the fleet to the ManualClock is enough.
  ManualClock clock;
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 2;
  config.queue_capacity = 8;
  config.seed = 0xDEAD33;
  config.rotation_deadline = milliseconds(2000);
  config.clock = clock.fn();
  VariantFleet fleet(config);
  clock.subscribe([&fleet] { fleet.notify_time_advanced(); });
  const auto before = fleet.live_fingerprints();

  // Pin BOTH lanes mid-job so rotate_fleet() can only flag, then go idle:
  // no polls, no further submissions.
  harness::GatedJob first;
  harness::GatedJob second;
  auto first_outcome = fleet.submit(first.job());
  auto second_outcome = fleet.submit(second.job());
  first.wait_started();
  second.wait_started();
  ASSERT_EQ(fleet.rotate_fleet(), 2u);
  EXPECT_EQ(fleet.live_fingerprints(), before);  // deadline not reached

  // The clock advance ALONE must force-install the replacements.
  clock.advance(milliseconds(2000));
  const auto after = fleet.live_fingerprints();
  EXPECT_NE(after[0], before[0]);
  EXPECT_NE(after[1], before[1]);
  EXPECT_EQ(fleet.telemetry().snapshot().sessions_rotated, 2u);

  first.release();
  second.release();
  EXPECT_TRUE(first_outcome.get().ok());
  EXPECT_TRUE(second_outcome.get().ok());
}

TEST(FleetKeyspace, SubmissionEnforcesRotationDeadlineWithoutAnyPoll) {
  // The other half of the regression fix: a fleet nobody subscribed to the
  // clock still must not ADMIT new work past a stale deadline — submit() and
  // try_submit() enforce it on entry.
  ManualClock clock;
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 2;
  config.queue_capacity = 8;
  config.seed = 0xDEAD44;
  config.rotation_deadline = milliseconds(2000);
  config.clock = clock.fn();
  VariantFleet fleet(config);
  const auto before = fleet.live_fingerprints();

  harness::GatedJob first;
  harness::GatedJob second;
  auto first_outcome = fleet.submit(first.job());
  auto second_outcome = fleet.submit(second.job());
  first.wait_started();
  second.wait_started();
  ASSERT_EQ(fleet.rotate_fleet(), 2u);
  clock.advance(milliseconds(2000));
  EXPECT_EQ(fleet.live_fingerprints(), before);  // nobody looked yet

  // The next admission — not its completion — performs the force-swap.
  auto queued = fleet.try_submit(jobs::uid_churn(3));
  ASSERT_TRUE(queued.has_value());
  const auto after = fleet.live_fingerprints();
  EXPECT_NE(after[0], before[0]);
  EXPECT_NE(after[1], before[1]);
  EXPECT_EQ(fleet.telemetry().snapshot().sessions_rotated, 2u);

  first.release();
  second.release();
  EXPECT_TRUE(first_outcome.get().ok());
  EXPECT_TRUE(second_outcome.get().ok());
  EXPECT_TRUE(queued->get().ok());
}

TEST(FleetKeyspace, DisplacedSessionQuarantineKeepsTheFreshReplacement) {
  // The deadline swap interacting with detection: when the too-slow job then
  // ALARMS, the quarantine must be recorded against the displaced session the
  // attacker actually faced — and the never-exposed replacement stays in
  // service instead of burning another draw.
  ManualClock clock;
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 2;
  config.queue_capacity = 8;
  config.seed = 0xDEAD22;
  config.rotation_deadline = milliseconds(1000);
  config.clock = clock.fn();
  VariantFleet fleet(config);
  const auto before = fleet.live_fingerprints();

  // A gated poison job: held open like GatedJob, then throws.
  auto started = std::make_shared<std::promise<void>>();
  auto release = std::make_shared<std::promise<void>>();
  auto release_future = release->get_future().share();
  auto slow_poison = [started, release_future](core::NVariantSystem&) -> core::RunReport {
    started->set_value();
    release_future.wait();
    throw std::runtime_error("slow probe");
  };
  auto outcome = fleet.submit_to(0, slow_poison);
  started->get_future().wait();

  ASSERT_EQ(fleet.rotate_fleet(), 2u);
  // Lane 1 is idle and rotates lazily on its own; lane 0 is pinned.
  ASSERT_TRUE(
      wait_until([&] { return fleet.telemetry().snapshot().sessions_rotated == 1u; }));
  clock.advance(milliseconds(1000));
  EXPECT_EQ(fleet.poll_adaptive(), 1u);  // the force-rotation of lane 0
  const auto fresh = fleet.live_fingerprints();
  EXPECT_NE(fresh[0], before[0]);

  release->set_value();
  const JobOutcome result = outcome.get();
  EXPECT_TRUE(result.session_quarantined);

  const auto log = fleet.quarantine_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].fingerprint, before[0]);           // what the attacker faced
  EXPECT_EQ(log[0].replacement_fingerprint, fresh[0]);  // already installed
  const FleetSnapshot snap = fleet.telemetry().snapshot();
  EXPECT_EQ(snap.sessions_quarantined, 1u);
  EXPECT_EQ(snap.sessions_respawned, 0u);  // no extra draw was burned
  EXPECT_EQ(fleet.live_fingerprints()[0], fresh[0]);
  EXPECT_TRUE(fleet.submit(jobs::uid_churn(3)).get().ok());
}

}  // namespace
}  // namespace nv::fleet
