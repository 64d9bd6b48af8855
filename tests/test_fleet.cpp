// The variant fleet: session stamping with fresh per-session diversity
// draws, concurrent dispatch over a bounded queue, the detect -> quarantine
// -> respawn recovery loop under injected attacks, and fleet-wide telemetry.
// Deterministic throughout (seeded draws, promise-gated jobs — see
// fleet_test_harness.h); the ops layer (campaigns, stealing, drain) is
// covered in test_fleet_ops.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <set>
#include <thread>

#include "fleet/fleet.h"
#include "fleet/jobs.h"
#include "fleet/session_factory.h"
#include "fleet/telemetry.h"
#include "fleet_test_harness.h"
#include "variants/registry.h"

namespace nv::fleet {
namespace {

using harness::GatedJob;
using harness::uid_spec;

httpd::ServerConfig httpd_config(std::uint32_t max_requests) {
  httpd::ServerConfig config;
  config.uid_ops_mode = guest::UidOpsMode::kSyscallChecked;
  config.max_requests = max_requests;
  return config;
}

// --- SessionFactory ---------------------------------------------------------

TEST(SessionFactory, DrawsFreshDiversityParamsPerSession) {
  SessionFactory factory(uid_spec(), /*seed=*/42, variants::builtin_registry());
  auto first = factory.make_session();
  auto second = factory.make_session();
  ASSERT_TRUE(first.has_value()) << first.error();
  ASSERT_TRUE(second.has_value()) << second.error();

  EXPECT_NE(first->id, second->id);
  EXPECT_TRUE(first->system->sealed());
  EXPECT_EQ(first->system->n_variants(), 2u);

  // No two sessions share a reexpression: the drawn uid masks differ.
  ASSERT_TRUE(first->drawn_params.contains("uid-xor.mask"));
  ASSERT_TRUE(second->drawn_params.contains("uid-xor.mask"));
  EXPECT_NE(first->drawn_params.at("uid-xor.mask"), second->drawn_params.at("uid-xor.mask"));
  EXPECT_NE(first->fingerprint, second->fingerprint);

  // Drawn masks respect the uid-variation envelope: non-zero, high bit clear,
  // bit 30 set (so shifted per-variant masks stay distinct).
  for (const auto* session : {&*first, &*second}) {
    const std::uint64_t mask = session->drawn_params.at("uid-xor.mask");
    EXPECT_EQ(mask & ~0x7FFFFFFFULL, 0u);
    EXPECT_NE(mask & 0x40000000ULL, 0u);
  }
}

TEST(SessionFactory, SameSeedReproducesTheSameDraws) {
  SessionFactory a(uid_spec(), /*seed=*/7, variants::builtin_registry());
  SessionFactory b(uid_spec(), /*seed=*/7, variants::builtin_registry());
  auto sa = a.make_session();
  auto sb = b.make_session();
  ASSERT_TRUE(sa.has_value() && sb.has_value());
  EXPECT_EQ(sa->fingerprint, sb->fingerprint);
  EXPECT_EQ(sa->drawn_params, sb->drawn_params);
}

TEST(SessionFactory, RandomizeOffUsesRegistryDefaults) {
  SessionSpec spec = uid_spec();
  spec.randomize = false;
  SessionFactory factory(spec, /*seed=*/42, variants::builtin_registry());
  auto first = factory.make_session();
  auto second = factory.make_session();
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_TRUE(first->drawn_params.empty());
  // Only the session id distinguishes the fingerprints.
  EXPECT_NE(first->fingerprint.find("uid-xor"), std::string::npos);
}

TEST(SessionFactory, MultiVariationSuiteDrawsAllParams) {
  SessionSpec spec;
  spec.n_variants = 3;
  spec.variations = {"uid-xor", "extended-address-partitioning", "instruction-tagging"};
  SessionFactory factory(spec, /*seed=*/11, variants::builtin_registry());
  auto session = factory.make_session();
  ASSERT_TRUE(session.has_value()) << session.error();
  EXPECT_TRUE(session->drawn_params.contains("uid-xor.mask"));
  EXPECT_TRUE(session->drawn_params.contains("extended-address-partitioning.seed"));
  EXPECT_TRUE(session->drawn_params.contains("instruction-tagging.base-tag"));
  // The drawn base tag leaves headroom for every variant's tag in one byte.
  EXPECT_LE(session->drawn_params.at("instruction-tagging.base-tag") + spec.n_variants - 1,
            0xFFu);
  EXPECT_EQ(session->system->n_variants(), 3u);
}

TEST(SessionFactory, UnknownVariationIsAnExpectedError) {
  SessionSpec spec = uid_spec();
  spec.variations = {"no-such-variation"};
  SessionFactory factory(spec, /*seed=*/1, variants::builtin_registry());
  auto session = factory.make_session();
  ASSERT_FALSE(session.has_value());
  EXPECT_NE(session.error().find("no-such-variation"), std::string::npos);
}

// --- FleetTelemetry ---------------------------------------------------------

TEST(FleetTelemetry, MergesLaneSamplesIntoFleetPercentiles) {
  FleetTelemetry telemetry(3);
  // 99 samples spread round-robin over the lanes: percentiles must be
  // computed over the UNION, not any single lane.
  for (int i = 1; i <= 99; ++i) {
    telemetry.record_latency(static_cast<unsigned>(i % 3), static_cast<double>(i));
    telemetry.note_completed();
  }
  const FleetSnapshot snap = telemetry.snapshot();
  EXPECT_EQ(snap.jobs_completed, 99u);
  EXPECT_EQ(snap.latency_count, 99u);
  EXPECT_DOUBLE_EQ(snap.latency_p50_us, 50.0);
  // Linear interpolation between order statistics: rank p/100 * (n-1).
  EXPECT_NEAR(snap.latency_p95_us, 94.1, 1e-9);
  EXPECT_NEAR(snap.latency_p99_us, 98.02, 1e-9);
  EXPECT_NE(snap.describe().find("99 completed"), std::string::npos);
}

TEST(FleetTelemetry, SnapshotWhileALaneRecords) {
  // One thread records into lane 0 while this one folds the lanes. A
  // snapshot counts only records that had begun, and each record it counts
  // it counts whole, so its percentiles stay inside the values recorded.
  constexpr std::uint64_t kRecords = 100'000;
  constexpr std::uint64_t kLowest = 10;
  constexpr std::uint64_t kHighest = kLowest + 999'983;
  FleetTelemetry telemetry(2);
  std::atomic<std::uint64_t> begun{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      begun.store(i + 1, std::memory_order_release);
      telemetry.record_latency(0, kLowest + (i * 7919) % (kHighest - kLowest + 1));
    }
    done.store(true, std::memory_order_release);
  });
  std::uint64_t snapshots = 0;
  std::uint64_t violations = 0;
  for (bool last = false; !last;) {
    last = done.load(std::memory_order_acquire);
    const FleetSnapshot snap = telemetry.snapshot();
    const std::uint64_t begun_after = begun.load(std::memory_order_acquire);
    ++snapshots;
    if (snap.latency_count > begun_after) ++violations;
    if (snap.latency_count == 0) continue;
    for (const double p : {snap.latency_p50_us, snap.latency_p95_us, snap.latency_p99_us}) {
      if (p < static_cast<double>(kLowest) || p > static_cast<double>(kHighest)) ++violations;
    }
    if (snap.latency_p50_us > snap.latency_p95_us || snap.latency_p95_us > snap.latency_p99_us) {
      ++violations;
    }
  }
  writer.join();
  EXPECT_EQ(violations, 0u) << "over " << snapshots << " snapshots";
  const FleetSnapshot final_snap = telemetry.snapshot();
  EXPECT_EQ(final_snap.latency_count, kRecords);
}

// --- VariantFleet: dispatch -------------------------------------------------

TEST(VariantFleet, CompletesConcurrentJobsAcrossThePool) {
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 3;
  config.queue_capacity = 32;
  VariantFleet fleet(config);

  std::vector<std::future<JobOutcome>> futures;
  for (int i = 0; i < 9; ++i) futures.push_back(fleet.submit(jobs::uid_churn(25)));
  std::set<std::uint64_t> sessions_used;
  for (auto& future : futures) {
    const JobOutcome outcome = future.get();
    EXPECT_TRUE(outcome.ok()) << outcome.error;
    EXPECT_TRUE(outcome.report.completed);
    EXPECT_FALSE(outcome.session_quarantined);
    EXPECT_GT(outcome.report.syscall_rounds, 0u);
    sessions_used.insert(outcome.session_id);
  }
  const FleetSnapshot snap = fleet.telemetry().snapshot();
  EXPECT_EQ(snap.jobs_submitted, 9u);
  EXPECT_EQ(snap.jobs_completed, 9u);
  EXPECT_EQ(snap.jobs_alarmed, 0u);
  EXPECT_EQ(snap.sessions_quarantined, 0u);
  EXPECT_EQ(snap.latency_count, 9u);
  EXPECT_GT(snap.latency_p50_us, 0.0);
  EXPECT_GT(snap.syscall_rounds, 0u);
  EXPECT_EQ(fleet.live_fingerprints().size(), 3u);
}

TEST(VariantFleet, BackpressureBoundsTheAdmissionQueue) {
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 1;
  config.queue_capacity = 1;
  VariantFleet fleet(config);

  // Occupy the single worker with a job that blocks until released.
  GatedJob gated;
  auto blocker = fleet.submit(gated.job());
  gated.wait_started();

  // Fill the queue's single slot, then verify admission control refuses more.
  auto queued = fleet.try_submit(jobs::uid_churn(5));
  ASSERT_TRUE(queued.has_value());
  auto refused = fleet.try_submit(jobs::uid_churn(5));
  EXPECT_FALSE(refused.has_value());
  EXPECT_EQ(fleet.queue_depth(), 1u);

  gated.release();
  EXPECT_TRUE(blocker.get().ok());
  EXPECT_TRUE(queued->get().ok());
  EXPECT_GE(fleet.telemetry().snapshot().jobs_rejected, 1u);
}

// --- VariantFleet: the recovery loop ----------------------------------------

TEST(VariantFleet, DetectQuarantineRespawnUnderConcurrentAttack) {
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 3;
  config.queue_capacity = 32;
  config.seed = 0xD1CE;
  VariantFleet fleet(config);
  const std::vector<std::string> initial_fleet = fleet.live_fingerprints();

  // Interleave benign request streams with Chen-style UID-smash attacks so
  // attacked and healthy sessions run concurrently.
  std::vector<std::future<JobOutcome>> normal;
  std::vector<std::future<JobOutcome>> attacked;
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 3; ++i) {
      normal.push_back(
          fleet.submit(jobs::httpd_request_stream(httpd_config(4), jobs::normal_browse(4))));
    }
    attacked.push_back(
        fleet.submit(jobs::httpd_request_stream(httpd_config(10), jobs::uid_smash_attack())));
  }

  // Every attacked session raises an alarm and is quarantined.
  for (auto& future : attacked) {
    const JobOutcome outcome = future.get();
    EXPECT_TRUE(outcome.report.attack_detected);
    EXPECT_TRUE(outcome.session_quarantined);
    ASSERT_TRUE(outcome.report.alarm.has_value());
    EXPECT_EQ(outcome.report.alarm->kind, core::AlarmKind::kUidCheckFailed);
  }
  // Non-attacked jobs all complete, unaffected by the quarantines around them.
  for (auto& future : normal) {
    const JobOutcome outcome = future.get();
    EXPECT_TRUE(outcome.ok()) << outcome.error;
    EXPECT_TRUE(outcome.report.completed);
  }

  // Forensics: each quarantine record retains the alarm and fingerprint, and
  // the respawned replacement drew DIFFERENT diversity parameters.
  const auto log = fleet.quarantine_log();
  ASSERT_EQ(log.size(), 3u);
  for (const auto& record : log) {
    EXPECT_EQ(record.alarm.kind, core::AlarmKind::kUidCheckFailed);
    EXPECT_TRUE(record.report.attack_detected);
    EXPECT_NE(record.replacement_id, record.session_id);
    EXPECT_NE(record.replacement_fingerprint, record.fingerprint);
    EXPECT_NE(record.replacement_fingerprint.find("uid-xor"), std::string::npos);
  }

  // The fleet kept its full strength: three live re-diversified sessions.
  const auto final_fleet = fleet.live_fingerprints();
  EXPECT_EQ(final_fleet.size(), 3u);

  const FleetSnapshot snap = fleet.telemetry().snapshot();
  EXPECT_EQ(snap.jobs_alarmed, 3u);
  EXPECT_EQ(snap.jobs_completed, 9u);
  EXPECT_EQ(snap.sessions_quarantined, 3u);
  EXPECT_EQ(snap.sessions_respawned, 3u);
  EXPECT_EQ(snap.latency_count, 12u);
}

TEST(VariantFleet, FtpSiteAttackIsDetectedAndQuarantined) {
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 2;
  config.queue_capacity = 8;
  VariantFleet fleet(config);

  httpd::FtpdConfig ftpd;
  ftpd.uid_ops_mode = guest::UidOpsMode::kSyscallChecked;
  ftpd.max_sessions = 1;
  auto benign = fleet.submit(jobs::ftpd_command_stream(ftpd, jobs::ftp_normal_session()));
  auto attack = fleet.submit(jobs::ftpd_command_stream(ftpd, jobs::ftp_site_attack()));

  const JobOutcome benign_outcome = benign.get();
  EXPECT_TRUE(benign_outcome.ok()) << benign_outcome.error;
  const JobOutcome attack_outcome = attack.get();
  EXPECT_TRUE(attack_outcome.report.attack_detected);
  EXPECT_TRUE(attack_outcome.session_quarantined);
}

TEST(VariantFleet, JobExceptionQuarantinesTheSessionAndFleetRecovers) {
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 2;
  config.queue_capacity = 8;
  VariantFleet fleet(config);

  auto faulty = fleet.submit(
      [](core::NVariantSystem&) -> core::RunReport { throw std::runtime_error("job bug"); });
  const JobOutcome outcome = faulty.get();
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error, "job bug");
  EXPECT_TRUE(outcome.session_quarantined);

  const auto log = fleet.quarantine_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].alarm.kind, core::AlarmKind::kGuestError);

  // The replacement session serves follow-up work.
  EXPECT_TRUE(fleet.submit(jobs::uid_churn(10)).get().ok());
  const FleetSnapshot snap = fleet.telemetry().snapshot();
  EXPECT_EQ(snap.job_errors, 1u);
  EXPECT_EQ(snap.sessions_respawned, 1u);
}

TEST(VariantFleet, ShutdownDrainsQueuedJobsThenRefusesNewOnes) {
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 2;
  config.queue_capacity = 16;
  auto fleet = std::make_unique<VariantFleet>(config);

  std::vector<std::future<JobOutcome>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(fleet->submit(jobs::uid_churn(10)));
  fleet->shutdown();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());  // drained, not dropped
  EXPECT_THROW((void)fleet->submit(jobs::uid_churn(1)), std::runtime_error);
  EXPECT_FALSE(fleet->try_submit(jobs::uid_churn(1)).has_value());
}

}  // namespace
}  // namespace nv::fleet
