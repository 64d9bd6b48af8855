// The load harness (src/load): deterministic open-workload generation, the
// closed/open-loop drivers against a REAL VariantFleet on a ManualClock, and
// the admission-control machinery they exposed (AdmissionPolicy, backpressure
// telemetry). Property-style admission tests drive the fleet directly with
// seeded random bursts; harness tests run whole virtual-time load points.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fleet/fleet.h"
#include "fleet_test_harness.h"
#include "load/harness.h"
#include "load/workload.h"
#include "util/rng.h"

namespace nv {
namespace {

using fleet::AdmissionPolicy;
using fleet::harness::GatedJob;
using fleet::harness::wait_until;

// --- workload generation ----------------------------------------------------

load::WorkloadConfig small_workload() {
  load::WorkloadConfig config;
  config.seed = 0xBEEF;
  config.offered_per_sec = 200.0;
  config.duration = 500 * sim::kMillisecond;
  return config;
}

TEST(LoadWorkload, SameSeedProducesByteIdenticalSchedule) {
  const auto config = small_workload();
  const std::string first = load::serialize(load::generate(config));
  const std::string second = load::serialize(load::generate(config));
  ASSERT_FALSE(first.empty());
  // Byte-identical, not merely statistically similar: the schedule IS the
  // experiment input, and reproducibility is the contract.
  EXPECT_EQ(first, second);

  auto reseeded = config;
  reseeded.seed = 0xBEEF + 1;
  EXPECT_NE(first, load::serialize(load::generate(reseeded)));
}

TEST(LoadWorkload, RhoInversionRoundTrips) {
  load::WorkloadConfig config = small_workload();
  for (const double rho : {0.25, 0.8, 1.0, 2.5}) {
    config.offered_per_sec = load::rate_for_rho(config, rho, /*pool_size=*/4);
    EXPECT_NEAR(load::offered_rho(config, 4), rho, 1e-9);
  }
}

TEST(LoadWorkload, AttackerFractionDialsProbesIn) {
  auto config = small_workload();
  config.offered_per_sec = 1000.0;  // plenty of arrivals for stable fractions
  for (const auto& arrival : load::generate(config)) {
    EXPECT_NE(arrival.klass, load::RequestClass::kAttack);
  }
  config.attacker_fraction = 0.3;
  const auto schedule = load::generate(config);
  std::size_t attacks = 0;
  for (const auto& arrival : schedule) {
    if (arrival.klass == load::RequestClass::kAttack) ++attacks;
    // Every service demand respects the harness's millisecond clamp.
    EXPECT_GE(arrival.service, sim::kMillisecond);
  }
  const double fraction = static_cast<double>(attacks) / static_cast<double>(schedule.size());
  EXPECT_GT(fraction, 0.15);
  EXPECT_LT(fraction, 0.45);
}

TEST(LoadWorkload, GeneratorRejectsNonsenseConfigs) {
  auto config = small_workload();
  config.offered_per_sec = 0.0;
  EXPECT_THROW((void)load::generate(config), std::invalid_argument);
  config = small_workload();
  config.http_small_weight = config.http_heavy_weight = config.ftp_weight = 0.0;
  EXPECT_THROW((void)load::generate(config), std::invalid_argument);
}

// --- knee detection ---------------------------------------------------------

TEST(LoadHarness, KneeDetectionFindsFirstSaturatedPoint) {
  std::vector<load::LoadCurvePoint> curve(4);
  curve[0].rho = 0.4;
  curve[0].report.latency_p99_ms = 10.0;
  curve[1].rho = 0.8;
  curve[1].report.latency_p99_ms = 14.0;
  curve[2].rho = 1.6;
  curve[2].report.latency_p99_ms = 80.0;  // > 3x the first point
  curve[3].rho = 3.2;
  curve[3].report.latency_p99_ms = 200.0;
  curve[3].report.shed_fraction = 0.5;
  EXPECT_EQ(load::knee_index(curve), 2u);

  // Any shedding flags the knee even when latency still looks tame.
  curve[2].report.latency_p99_ms = 15.0;
  curve[2].report.shed_fraction = 0.02;
  EXPECT_EQ(load::knee_index(curve), 2u);

  curve[2].report.shed_fraction = 0.0;
  curve[3].report.shed_fraction = 0.0;
  curve[3].report.latency_p99_ms = 20.0;
  EXPECT_EQ(load::knee_index(curve), curve.size());
  EXPECT_EQ(load::knee_index({}), 0u);
}

// --- whole load points on a real fleet --------------------------------------

load::LoadHarnessConfig harness_config() {
  load::LoadHarnessConfig config;
  config.pool_size = 2;
  config.queue_capacity = 4;
  config.quantum = std::chrono::milliseconds(5);
  config.workload = small_workload();
  return config;
}

TEST(LoadHarness, ShedVersusBlockAB) {
  // Same overloaded arrival schedule (rho = 2) through both admission
  // policies. Shedding bounds latency by refusing; blocking serves everything
  // at the price of unbounded queueing delay.
  load::LoadHarnessConfig config = harness_config();
  config.workload.offered_per_sec =
      load::rate_for_rho(config.workload, 2.0, config.pool_size);

  config.admission = AdmissionPolicy::kShed;
  const load::LoadReport shed = load::run_load(config);
  config.admission = AdmissionPolicy::kBlock;
  const load::LoadReport block = load::run_load(config);

  // Identical offered stream (same seed, same horizon).
  EXPECT_EQ(shed.offered, block.offered);
  ASSERT_GT(shed.offered, 0u);

  // kShed: refusals are explicit and accounted, and the bounded queue holds.
  EXPECT_GT(shed.shed, 0u);
  EXPECT_EQ(shed.offered, shed.admitted + shed.shed);
  EXPECT_LE(shed.queue_high_watermark, config.queue_capacity);
  EXPECT_GT(shed.shed_fraction, 0.0);

  // kBlock: nothing is refused — every arrival is eventually admitted and
  // served; the overload shows up as latency instead.
  EXPECT_EQ(block.shed, 0u);
  EXPECT_EQ(block.admitted, block.offered);
  EXPECT_EQ(block.completed, block.offered);
  EXPECT_GT(block.latency_p99_ms, shed.latency_p99_ms);
}

TEST(LoadHarness, CampaignUnderLoadRaisesOneAlertAndKeepsServing) {
  // A fleet under moderate benign load with a 10% attacker fraction must
  // correlate ALL probes into exactly one campaign (shared signature, window
  // spanning the horizon) while benign goodput stays near the no-attack
  // baseline.
  load::LoadHarnessConfig config = harness_config();
  config.admission = AdmissionPolicy::kShed;
  config.workload.offered_per_sec =
      load::rate_for_rho(config.workload, 0.5, config.pool_size);
  const load::LoadReport baseline = load::run_load(config);
  ASSERT_GT(baseline.completed, 0u);
  EXPECT_EQ(baseline.campaign_alerts, 0u);

  config.workload.attacker_fraction = 0.10;
  config.campaign.threshold = 3;
  config.campaign.window = std::chrono::milliseconds(
      static_cast<std::int64_t>(sim::to_ms(config.workload.duration)) * 10);
  const load::LoadReport attacked = load::run_load(config);

  EXPECT_EQ(attacked.campaign_alerts, 1u);
  EXPECT_GE(attacked.quarantined, config.campaign.threshold);
  // Every probe errored (threw) rather than completing cleanly.
  EXPECT_GE(attacked.errors, attacked.quarantined);
  // Benign goodput floor: the attack costs its arrival share plus respawn
  // churn, not the fleet.
  EXPECT_GT(attacked.goodput_per_sec, 0.6 * baseline.goodput_per_sec);
}

TEST(LoadHarness, ClosedLoopServesEveryClientRequest) {
  load::LoadHarnessConfig config = harness_config();
  config.mode = load::LoadMode::kClosedLoop;
  config.clients = 4;
  config.queue_capacity = 8;
  config.think_time = std::chrono::milliseconds(10);
  config.workload.duration = 300 * sim::kMillisecond;
  const load::LoadReport report = load::run_load(config);

  // A closed loop sized within capacity never refuses its own clients: every
  // request is admitted, served, and measured.
  ASSERT_GT(report.offered, 0u);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.admitted, report.offered);
  EXPECT_EQ(report.completed, report.offered);
  EXPECT_EQ(report.latency_count, report.completed);
  EXPECT_GT(report.latency_p50_ms, 0.0);
}

TEST(LoadHarness, RepeatedRunsAreIdentical) {
  // The whole point of the settle protocol: an overloaded run (sheds, queue
  // at capacity, heavy-tailed services) reproduces every counter and every
  // latency percentile exactly — not statistically — across runs. This is
  // what lets bench_load_curves promise a byte-identical document.
  load::LoadHarnessConfig config = harness_config();
  config.admission = AdmissionPolicy::kShed;
  config.workload.offered_per_sec =
      load::rate_for_rho(config.workload, 1.5, config.pool_size);
  const load::LoadReport first = load::run_load(config);
  const load::LoadReport second = load::run_load(config);
  ASSERT_GT(first.shed, 0u);  // the hard regime, not an idle fleet
  EXPECT_EQ(first.describe(), second.describe());
  EXPECT_EQ(first.duration_s, second.duration_s);
  EXPECT_EQ(first.latency_p99_ms, second.latency_p99_ms);
}

TEST(LoadHarness, ClosedLoopRejectsCapacityBelowClients) {
  load::LoadHarnessConfig config = harness_config();
  config.mode = load::LoadMode::kClosedLoop;
  config.clients = 8;
  config.queue_capacity = 4;
  EXPECT_THROW((void)load::run_load(config), std::invalid_argument);
}

// --- admission-policy properties (fleet driven directly) --------------------

fleet::FleetConfig admission_fleet(fleet::ManualClock& clock, AdmissionPolicy admission) {
  fleet::FleetConfig config;
  config.spec = fleet::harness::uid_spec();
  config.pool_size = 2;
  config.queue_capacity = 4;
  config.admission = admission;
  config.seed = 7;
  config.clock = clock.fn();
  return config;
}

TEST(Admission, QueueBoundHoldsUnderRandomizedBursts) {
  fleet::ManualClock clock;
  fleet::VariantFleet fleet(admission_fleet(clock, AdmissionPolicy::kShed));

  // Pin both lanes so queue depth is fully under the test's control.
  GatedJob pin_a;
  GatedJob pin_b;
  auto fa = fleet.submit(pin_a.job());
  pin_a.wait_started();
  auto fb = fleet.submit(pin_b.job());
  pin_b.wait_started();

  // Seeded random bursts; depth must NEVER exceed the bound, and every
  // refusal must be an already-resolved kShedError future.
  util::Rng rng(0x5eed);
  std::vector<std::future<fleet::JobOutcome>> futures;
  std::uint64_t offered = 0;
  std::uint64_t shed_seen = 0;
  for (int burst = 0; burst < 8; ++burst) {
    const std::uint64_t size = 1 + rng.below(6);
    for (std::uint64_t i = 0; i < size; ++i) {
      auto future = fleet.submit([](core::NVariantSystem&) {
        core::RunReport report;
        report.completed = true;
        return report;
      });
      ++offered;
      EXPECT_LE(fleet.queue_depth(), 4u);
      if (future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        const auto outcome = future.get();
        if (outcome.error == fleet::VariantFleet::kShedError) {
          ++shed_seen;
          continue;
        }
      }
      futures.push_back(std::move(future));
    }
  }
  EXPECT_GT(shed_seen, 0u);  // the bursts overflowed the bound at least once

  pin_a.release();
  pin_b.release();
  for (auto& future : futures) (void)future.get();
  (void)fa.get();
  (void)fb.get();
  fleet.shutdown();

  // Refusals are counted, not lost: offered splits exactly into shed +
  // admitted, and every admitted job reached a terminal state.
  const fleet::FleetSnapshot snap = fleet.telemetry().snapshot();
  EXPECT_EQ(snap.jobs_shed, shed_seen);
  EXPECT_EQ(offered + 2, snap.jobs_shed + snap.jobs_submitted);  // +2 pins
  EXPECT_EQ(snap.jobs_submitted, snap.jobs_completed + snap.jobs_alarmed + snap.job_errors +
                                     snap.jobs_abandoned + snap.jobs_deadline_dropped);
}

TEST(Admission, AccountingIdentityHoldsAcrossPolicies) {
  for (const auto policy : {AdmissionPolicy::kShed, AdmissionPolicy::kDeadlineDrop}) {
    fleet::ManualClock clock;
    fleet::FleetConfig config = admission_fleet(clock, policy);
    config.queue_deadline = std::chrono::milliseconds(50);
    fleet::VariantFleet fleet(std::move(config));

    GatedJob pin_a;
    GatedJob pin_b;
    auto fa = fleet.submit(pin_a.job());
    pin_a.wait_started();
    auto fb = fleet.submit(pin_b.job());
    pin_b.wait_started();

    util::Rng rng(static_cast<std::uint64_t>(policy) + 99);
    std::vector<std::future<fleet::JobOutcome>> futures;
    std::uint64_t offered = 0;
    for (int burst = 0; burst < 6; ++burst) {
      for (std::uint64_t i = 0, n = 1 + rng.below(8); i < n; ++i) {
        futures.push_back(fleet.submit([](core::NVariantSystem&) {
          core::RunReport report;
          report.completed = true;
          return report;
        }));
        ++offered;
      }
      // Let some queued work age past the deadline under kDeadlineDrop.
      clock.advance(std::chrono::milliseconds(40));
    }
    pin_a.release();
    pin_b.release();
    for (auto& future : futures) (void)future.get();
    (void)fa.get();
    (void)fb.get();
    fleet.shutdown();

    const fleet::FleetSnapshot snap = fleet.telemetry().snapshot();
    EXPECT_EQ(offered + 2, snap.jobs_shed + snap.jobs_submitted);
    EXPECT_EQ(snap.jobs_submitted, snap.jobs_completed + snap.jobs_alarmed + snap.job_errors +
                                       snap.jobs_abandoned + snap.jobs_deadline_dropped);
    if (policy == AdmissionPolicy::kShed) {
      EXPECT_EQ(snap.jobs_deadline_dropped, 0u);
    }
  }
}

TEST(Admission, DeadlineDropExpiresStaleQueuedJobs) {
  fleet::ManualClock clock;
  fleet::FleetConfig config = admission_fleet(clock, AdmissionPolicy::kDeadlineDrop);
  config.queue_deadline = std::chrono::milliseconds(50);
  fleet::VariantFleet fleet(std::move(config));

  GatedJob pin_a;
  GatedJob pin_b;
  auto fa = fleet.submit(pin_a.job());
  pin_a.wait_started();
  auto fb = fleet.submit(pin_b.job());
  pin_b.wait_started();

  std::vector<std::future<fleet::JobOutcome>> stale;
  for (int i = 0; i < 3; ++i) {
    stale.push_back(fleet.submit([](core::NVariantSystem&) {
      core::RunReport report;
      report.completed = true;
      return report;
    }));
  }
  // Age the queue past the deadline BEFORE any lane frees up.
  clock.advance(std::chrono::milliseconds(100));
  pin_a.release();
  pin_b.release();

  for (auto& future : stale) {
    const auto outcome = future.get();
    EXPECT_EQ(outcome.error, fleet::VariantFleet::kDeadlineDropError);
    EXPECT_GE(outcome.latency.count(), 100'000);  // waited at least the advance
  }
  (void)fa.get();
  (void)fb.get();
  fleet.shutdown();
  EXPECT_EQ(fleet.telemetry().snapshot().jobs_deadline_dropped, 3u);
}

// --- backpressure telemetry -------------------------------------------------

TEST(Backpressure, ShedCounterMovesPerRefusal) {
  fleet::ManualClock clock;
  fleet::VariantFleet fleet(admission_fleet(clock, AdmissionPolicy::kShed));
  GatedJob pin_a;
  GatedJob pin_b;
  auto fa = fleet.submit(pin_a.job());
  pin_a.wait_started();
  auto fb = fleet.submit(pin_b.job());
  pin_b.wait_started();

  std::vector<std::future<fleet::JobOutcome>> queued;
  for (int i = 0; i < 4; ++i) {
    queued.push_back(fleet.submit([](core::NVariantSystem&) {
      core::RunReport report;
      report.completed = true;
      return report;
    }));
  }
  for (int i = 0; i < 3; ++i) {
    auto refused = fleet.submit([](core::NVariantSystem&) { return core::RunReport{}; });
    ASSERT_EQ(refused.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(refused.get().error, fleet::VariantFleet::kShedError);
  }
  EXPECT_EQ(fleet.telemetry().snapshot().jobs_shed, 3u);

  pin_a.release();
  pin_b.release();
  for (auto& future : queued) (void)future.get();
  (void)fa.get();
  (void)fb.get();
}

TEST(Backpressure, QueueHighWatermarkTracksPeakDepth) {
  fleet::ManualClock clock;
  fleet::VariantFleet fleet(admission_fleet(clock, AdmissionPolicy::kShed));
  // Serialize the pins so neither ever queues behind the other: the
  // watermark the burst below sets is then exactly the burst's peak.
  GatedJob pin_a;
  GatedJob pin_b;
  auto fa = fleet.submit(pin_a.job());
  pin_a.wait_started();
  auto fb = fleet.submit(pin_b.job());
  pin_b.wait_started();

  std::vector<std::future<fleet::JobOutcome>> queued;
  for (int i = 0; i < 3; ++i) {
    queued.push_back(fleet.submit([](core::NVariantSystem&) {
      core::RunReport report;
      report.completed = true;
      return report;
    }));
  }
  EXPECT_EQ(fleet.telemetry().snapshot().queue_high_watermark, 3u);

  pin_a.release();
  pin_b.release();
  for (auto& future : queued) (void)future.get();
  (void)fa.get();
  (void)fb.get();
  // Draining does not erode the gauge: it records the PEAK.
  EXPECT_EQ(fleet.telemetry().snapshot().queue_high_watermark, 3u);
}

TEST(Backpressure, BlockedSubmitAccumulatesBlockedTime) {
  fleet::ManualClock clock;
  fleet::FleetConfig config = admission_fleet(clock, AdmissionPolicy::kBlock);
  config.queue_capacity = 2;
  fleet::VariantFleet fleet(std::move(config));

  GatedJob pin_a;
  GatedJob pin_b;
  auto fa = fleet.submit(pin_a.job());
  pin_a.wait_started();
  auto fb = fleet.submit(pin_b.job());
  pin_b.wait_started();
  std::vector<std::future<fleet::JobOutcome>> queued;
  for (int i = 0; i < 2; ++i) {  // fill the bound
    queued.push_back(fleet.submit([](core::NVariantSystem&) {
      core::RunReport report;
      report.completed = true;
      return report;
    }));
  }

  std::future<fleet::JobOutcome> blocked_future;
  std::thread submitter([&] {
    blocked_future = fleet.submit([](core::NVariantSystem&) {
      core::RunReport report;
      report.completed = true;
      return report;
    });
  });
  // Once the snapshot counts the submitter, it has read the clock its
  // blocked window starts from, so this one advance lands inside it.
  ASSERT_TRUE(wait_until([&] { return fleet.idle_snapshot().blocked_submitters == 1; }));
  clock.advance(std::chrono::milliseconds(10));
  pin_a.release();
  pin_b.release();
  submitter.join();
  (void)blocked_future.get();
  for (auto& future : queued) (void)future.get();
  (void)fa.get();
  (void)fb.get();
  fleet.shutdown();

  EXPECT_GE(fleet.telemetry().snapshot().admission_blocked_us, 10'000u);
}

}  // namespace
}  // namespace nv
