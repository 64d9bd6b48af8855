// Fleet operations: attack-signature derivation, campaign correlation over
// synthetic and real alarm streams, the admission queue around a held
// respawn and a retired lane, deadline-bounded graceful drain, and
// diversity-draw uniqueness — all deterministic: seeded factories,
// promise-gated jobs, and ManualClock time (no sleeps, no wall-clock
// dependence for correctness).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/alarm.h"
#include "fleet/fleet.h"
#include "fleet/jobs.h"
#include "fleet/ops.h"
#include "fleet/session_factory.h"
#include "fleet_test_harness.h"
#include "obs/trace.h"
#include "util/strings.h"
#include "variants/registry.h"

namespace nv::fleet {
namespace {

using harness::GatedJob;
using harness::diversity_part;
using harness::poison_job;
using harness::uid_spec;
using harness::wait_until;

// --- AlarmSignature ---------------------------------------------------------

core::Alarm uid_mismatch_alarm(unsigned variant, std::uint64_t observed) {
  return core::Alarm{
      core::AlarmKind::kUidCheckFailed, variant,
      util::format("uid_value: canonical arguments diverge between variant 0 and %u "
                   "(uid_value(%llu, 0, 0, 0) vs uid_value(0, 0, 0, 0))",
                   variant, static_cast<unsigned long long>(observed))};
}

TEST(AlarmSignature, CollapsesDiversifiedValuesIntoOneShape) {
  // The same payload hitting two differently-diversified sessions leaves
  // different raw values (each drew its own mask) and may break a different
  // variant — but the SIGNATURE is identical.
  const auto a = core::signature_of(uid_mismatch_alarm(1, 0x5f3a91c2ULL));
  const auto b = core::signature_of(uid_mismatch_alarm(2, 431));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.kind, core::AlarmKind::kUidCheckFailed);
  EXPECT_EQ(a.syscall, "uid_value");
  EXPECT_EQ(a.shape,
            "uid_value: canonical arguments diverge between variant # and # "
            "(uid_value(#, #, #, #) vs uid_value(#, #, #, #))");
  EXPECT_EQ(a.key(), b.key());
}

TEST(AlarmSignature, HexAndDecimalLiteralsBothCollapse) {
  const core::Alarm alarm{core::AlarmKind::kTagFault, 3,
                          "tag 0x4e expected 0xa0 at 0x10000400 after 12 rounds"};
  const auto signature = core::signature_of(alarm);
  EXPECT_EQ(signature.shape, "tag # expected # at # after # rounds");
  EXPECT_TRUE(signature.syscall.empty());  // no "<syscall>:" attribution
}

TEST(AlarmSignature, NumericLeadingDetailYieldsNoSyscallAttribution) {
  // Regression: a detail that LEADS with a diversified value must not mint a
  // per-session pseudo-syscall ("4099", "0x5f3a91c2") — that would split one
  // campaign into N never-correlating signatures.
  const auto decimal = core::signature_of(
      core::Alarm{core::AlarmKind::kGuestError, 0, "4099: uid check rejected"});
  const auto hex = core::signature_of(
      core::Alarm{core::AlarmKind::kGuestError, 0, "0x5f3a91c2: uid check rejected"});
  EXPECT_TRUE(decimal.syscall.empty());
  EXPECT_TRUE(hex.syscall.empty());
  // And the two sessions' alarms still collapse to ONE signature.
  EXPECT_EQ(decimal, hex);
  EXPECT_EQ(decimal.shape, "#: uid check rejected");
}

TEST(AlarmSignature, DifferentKindsOrShapesAreDifferentCampaigns) {
  const auto uid = core::signature_of(uid_mismatch_alarm(1, 7));
  core::Alarm cond = uid_mismatch_alarm(1, 7);
  cond.kind = core::AlarmKind::kConditionMismatch;
  EXPECT_NE(uid.key(), core::signature_of(cond).key());

  const auto err_a = core::signature_of(
      core::Alarm{core::AlarmKind::kGuestError, 0, "heap corruption in handler"});
  const auto err_b = core::signature_of(
      core::Alarm{core::AlarmKind::kGuestError, 0, "stack smash in parser"});
  EXPECT_NE(err_a.key(), err_b.key());
  EXPECT_NE(uid.describe().find("uid_value"), std::string::npos);
}

// --- CampaignCorrelator (synthetic alarm streams, manual time) --------------

CampaignPolicy policy_of(unsigned k, std::chrono::milliseconds window) {
  CampaignPolicy policy;
  policy.threshold = k;
  policy.window = window;
  return policy;
}

TEST(CampaignCorrelator, KMinusOneQuarantinesAreNotACampaign) {
  ManualClock clock;
  CampaignCorrelator correlator(policy_of(3, std::chrono::milliseconds(1000)), clock.fn());
  EXPECT_FALSE(correlator.observe(uid_mismatch_alarm(1, 10), 0, "fp-0").has_value());
  clock.advance(std::chrono::milliseconds(100));
  EXPECT_FALSE(correlator.observe(uid_mismatch_alarm(1, 20), 1, "fp-1").has_value());
  EXPECT_TRUE(correlator.alerts().empty());
  EXPECT_EQ(correlator.incidents_observed(), 2u);
}

TEST(CampaignCorrelator, KSameSignatureQuarantinesRaiseExactlyOneAlert) {
  ManualClock clock;
  CampaignCorrelator correlator(policy_of(3, std::chrono::milliseconds(1000)), clock.fn());
  EXPECT_FALSE(correlator.observe(uid_mismatch_alarm(1, 10), 0, "fp-0").has_value());
  clock.advance(std::chrono::milliseconds(100));
  EXPECT_FALSE(correlator.observe(uid_mismatch_alarm(2, 20), 1, "fp-1").has_value());
  clock.advance(std::chrono::milliseconds(100));
  const auto alert = correlator.observe(uid_mismatch_alarm(1, 30), 2, "fp-2");
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->session_ids, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(alert->fingerprints.size(), 3u);
  EXPECT_EQ(alert->signature.kind, core::AlarmKind::kUidCheckFailed);
  EXPECT_NE(alert->describe().find("3 sessions"), std::string::npos);

  // The 4th incident JOINS the open campaign: no second alert, but the
  // alert's member list grows.
  clock.advance(std::chrono::milliseconds(100));
  EXPECT_FALSE(correlator.observe(uid_mismatch_alarm(1, 40), 3, "fp-3").has_value());
  const auto alerts = correlator.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].session_ids.size(), 4u);
  EXPECT_EQ(alerts[0].session_ids.back(), 3u);
}

TEST(CampaignCorrelator, MixedSignaturesTrackSeparately) {
  ManualClock clock;
  CampaignCorrelator correlator(policy_of(3, std::chrono::milliseconds(1000)), clock.fn());
  const core::Alarm heap{core::AlarmKind::kGuestError, 0, "heap corruption in handler"};
  const core::Alarm stack{core::AlarmKind::kGuestError, 0, "stack smash in parser"};
  // Interleave two signatures; neither reaches K=3 until its own 3rd.
  EXPECT_FALSE(correlator.observe(heap, 0, "fp-0").has_value());
  EXPECT_FALSE(correlator.observe(stack, 1, "fp-1").has_value());
  EXPECT_FALSE(correlator.observe(heap, 2, "fp-2").has_value());
  EXPECT_FALSE(correlator.observe(stack, 3, "fp-3").has_value());
  EXPECT_TRUE(correlator.alerts().empty());

  const auto heap_alert = correlator.observe(heap, 4, "fp-4");
  ASSERT_TRUE(heap_alert.has_value());
  EXPECT_EQ(heap_alert->session_ids, (std::vector<std::uint64_t>{0, 2, 4}));
  const auto stack_alert = correlator.observe(stack, 5, "fp-5");
  ASSERT_TRUE(stack_alert.has_value());
  EXPECT_EQ(stack_alert->session_ids, (std::vector<std::uint64_t>{1, 3, 5}));
  EXPECT_EQ(correlator.alerts().size(), 2u);
}

TEST(CampaignCorrelator, SlidingWindowAgesIncidentsOut) {
  ManualClock clock;
  CampaignCorrelator correlator(policy_of(3, std::chrono::milliseconds(500)), clock.fn());
  EXPECT_FALSE(correlator.observe(uid_mismatch_alarm(1, 1), 0, "fp-0").has_value());
  EXPECT_FALSE(correlator.observe(uid_mismatch_alarm(1, 2), 1, "fp-1").has_value());
  // Both age out before the third arrives: still below threshold.
  clock.advance(std::chrono::milliseconds(501));
  EXPECT_FALSE(correlator.observe(uid_mismatch_alarm(1, 3), 2, "fp-2").has_value());
  EXPECT_TRUE(correlator.alerts().empty());
  // Two quick follow-ups complete a fresh window of three.
  clock.advance(std::chrono::milliseconds(10));
  EXPECT_FALSE(correlator.observe(uid_mismatch_alarm(1, 4), 3, "fp-3").has_value());
  clock.advance(std::chrono::milliseconds(10));
  EXPECT_TRUE(correlator.observe(uid_mismatch_alarm(1, 5), 4, "fp-4").has_value());
}

TEST(CampaignCorrelator, IdleExpiryClosesCampaignsWithoutAnObserve) {
  // Regression: windows used to be pruned only inside observe(), so a fleet
  // that went idle after a campaign reported it open FOREVER. The read APIs
  // prune now: open_campaigns() empties once the window ages out, while
  // alerts() keeps the historical record.
  ManualClock clock;
  CampaignCorrelator correlator(policy_of(2, std::chrono::milliseconds(500)), clock.fn());
  EXPECT_FALSE(correlator.observe(uid_mismatch_alarm(1, 1), 0, "fp-0").has_value());
  EXPECT_TRUE(correlator.observe(uid_mismatch_alarm(1, 2), 1, "fp-1").has_value());
  ASSERT_EQ(correlator.open_campaigns().size(), 1u);

  // NOTHING further observed: the campaign must still close on its own.
  clock.advance(std::chrono::milliseconds(501));
  EXPECT_TRUE(correlator.open_campaigns().empty());
  EXPECT_EQ(correlator.alerts().size(), 1u);  // history survives the close

  // And the closed track really is gone: the next burst is a NEW campaign.
  EXPECT_FALSE(correlator.observe(uid_mismatch_alarm(1, 3), 2, "fp-2").has_value());
  EXPECT_TRUE(correlator.observe(uid_mismatch_alarm(1, 4), 3, "fp-3").has_value());
  EXPECT_EQ(correlator.alerts().size(), 2u);
  EXPECT_EQ(correlator.open_campaigns().size(), 1u);
}

TEST(CampaignCorrelator, SetPolicyAppliesToTheLiveWindow) {
  ManualClock clock;
  CampaignCorrelator correlator(policy_of(5, std::chrono::milliseconds(1000)), clock.fn());
  EXPECT_FALSE(correlator.observe(uid_mismatch_alarm(1, 1), 0, "fp-0").has_value());
  EXPECT_FALSE(correlator.observe(uid_mismatch_alarm(1, 2), 1, "fp-1").has_value());

  // Tighten K to 3 mid-stream: the 3rd same-signature incident now alerts.
  auto policy = correlator.policy();
  policy.threshold = 3;
  correlator.set_policy(policy);
  EXPECT_TRUE(correlator.observe(uid_mismatch_alarm(1, 3), 2, "fp-2").has_value());

  // Widening the window immediately keeps older incidents alive: at 1500 ms
  // the incidents from t=0 would have aged out of the original 1000 ms
  // window, but the widened one still holds them.
  policy.window = std::chrono::milliseconds(5000);
  correlator.set_policy(policy);
  clock.advance(std::chrono::milliseconds(1500));
  EXPECT_EQ(correlator.open_campaigns().size(), 1u);
}

TEST(CampaignCorrelator, CampaignClosesWhenWindowEmptiesThenCanRealert) {
  ManualClock clock;
  CampaignCorrelator correlator(policy_of(2, std::chrono::milliseconds(500)), clock.fn());
  EXPECT_FALSE(correlator.observe(uid_mismatch_alarm(1, 1), 0, "fp-0").has_value());
  EXPECT_TRUE(correlator.observe(uid_mismatch_alarm(1, 2), 1, "fp-1").has_value());
  // Campaign dies down; the same signature bursting again later is a NEW
  // campaign and must re-alert.
  clock.advance(std::chrono::milliseconds(1000));
  EXPECT_FALSE(correlator.observe(uid_mismatch_alarm(1, 3), 2, "fp-2").has_value());
  EXPECT_TRUE(correlator.observe(uid_mismatch_alarm(1, 4), 3, "fp-3").has_value());
  const auto alerts = correlator.alerts();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].session_ids, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(alerts[1].session_ids, (std::vector<std::uint64_t>{2, 3}));
}

TEST(CampaignCorrelator, AnAlertKeepsItsFirst64MembersAndCountsThemAll) {
  ManualClock clock;  // frozen: every incident lands inside the window
  CampaignCorrelator correlator(policy_of(3, std::chrono::milliseconds(1000)), clock.fn());
  for (std::uint64_t session = 0; session < 100; ++session) {
    (void)correlator.observe(uid_mismatch_alarm(1, session), session,
                             "fp-" + std::to_string(session));
  }
  const auto alerts = correlator.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].members, 100u);
  ASSERT_EQ(alerts[0].session_ids.size(), CampaignAlert::kKeptMembers);
  ASSERT_EQ(alerts[0].fingerprints.size(), CampaignAlert::kKeptMembers);
  for (std::size_t i = 0; i < CampaignAlert::kKeptMembers; ++i) {
    EXPECT_EQ(alerts[0].session_ids[i], i);
    EXPECT_EQ(alerts[0].fingerprints[i], "fp-" + std::to_string(i));
  }
  EXPECT_NE(alerts[0].describe().find("100 sessions"), std::string::npos);
}

// --- VariantFleet: campaign correlation end to end --------------------------

TEST(FleetCampaign, SameSignatureQuarantinesRaiseOneFleetAlert) {
  ManualClock clock;  // frozen: every incident lands inside the window
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 2;
  config.queue_capacity = 16;
  config.seed = 0xCA11;
  config.campaign = policy_of(3, std::chrono::milliseconds(1000));
  config.clock = clock.fn();
  std::atomic<unsigned> hook_fired{0};
  config.on_campaign = [&hook_fired](const CampaignAlert&) { hook_fired.fetch_add(1, std::memory_order_relaxed); };
  VariantFleet fleet(config);

  // Three quarantines sharing one signature = ONE campaign, not 3 incidents.
  for (int i = 0; i < 3; ++i) {
    const JobOutcome outcome = fleet.submit(poison_job("coordinated probe")).get();
    EXPECT_TRUE(outcome.session_quarantined);
  }
  const auto alerts = fleet.campaign_alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].session_ids.size(), 3u);
  EXPECT_EQ(alerts[0].signature.kind, core::AlarmKind::kGuestError);
  EXPECT_EQ(alerts[0].signature.shape, "coordinated probe");
  EXPECT_EQ(hook_fired.load(std::memory_order_relaxed), 1u);

  const FleetSnapshot snap = fleet.telemetry().snapshot();
  EXPECT_EQ(snap.campaign_alerts, 1u);
  EXPECT_EQ(snap.sessions_quarantined, 3u);
  EXPECT_EQ(fleet.quarantine_log().size(), 3u);  // forensics keep the newest 64 incidents
}

TEST(FleetCampaign, MixedSignatureQuarantinesStayBelowThreshold) {
  ManualClock clock;
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 2;
  config.queue_capacity = 16;
  config.seed = 0xCA12;
  config.campaign = policy_of(3, std::chrono::milliseconds(1000));
  config.clock = clock.fn();
  VariantFleet fleet(config);

  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(fleet.submit(poison_job("probe alpha")).get().session_quarantined);
    EXPECT_TRUE(fleet.submit(poison_job("probe beta")).get().session_quarantined);
  }
  EXPECT_TRUE(fleet.campaign_alerts().empty());
  EXPECT_EQ(fleet.telemetry().snapshot().campaign_alerts, 0u);
  EXPECT_EQ(fleet.quarantine_log().size(), 4u);
}

TEST(FleetCampaign, RotationEscalationRediversifiesTheSurvivingFleet) {
  ManualClock clock;
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 3;
  config.queue_capacity = 16;
  config.seed = 0xCA13;
  config.campaign = policy_of(2, std::chrono::milliseconds(1000));
  config.campaign.rotate_fleet_on_alert = true;
  config.clock = clock.fn();
  VariantFleet fleet(config);

  std::set<std::string> before;
  for (const auto& fp : fleet.live_fingerprints()) before.insert(diversity_part(fp));
  ASSERT_EQ(before.size(), 3u);

  EXPECT_TRUE(fleet.submit(poison_job("rotate probe")).get().session_quarantined);
  EXPECT_TRUE(fleet.submit(poison_job("rotate probe")).get().session_quarantined);
  ASSERT_EQ(fleet.campaign_alerts().size(), 1u);

  // The alert flags every lane except the quarantining one; each rotates on
  // its next wakeup. Exactly pool-1 rotations, regardless of which lanes the
  // probes burned.
  ASSERT_TRUE(wait_until(
      [&] { return fleet.telemetry().snapshot().sessions_rotated == 2u; }));

  // Every reexpression the attacker observed (or could extrapolate from the
  // campaign) is gone: the live fleet shares no diversity key with the
  // initial one.
  for (const auto& fp : fleet.live_fingerprints()) {
    EXPECT_FALSE(before.contains(diversity_part(fp))) << fp;
  }
  // And the rotated fleet still serves.
  EXPECT_TRUE(fleet.submit(jobs::uid_churn(5)).get().ok());
}

TEST(FleetCampaign, CoordinatedUidSmashAcrossSessionsIsOneCampaign) {
  // The acceptance scenario: a coordinated uid-smash campaign across 3
  // differently-diversified httpd sessions raises exactly ONE CampaignAlert
  // (with 3 members), not 3 unrelated incident records.
  ManualClock clock;
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 3;
  config.queue_capacity = 32;
  config.seed = 0xD1CE;
  config.campaign = policy_of(3, std::chrono::milliseconds(60'000));
  config.clock = clock.fn();
  VariantFleet fleet(config);

  httpd::ServerConfig server;
  server.uid_ops_mode = guest::UidOpsMode::kSyscallChecked;
  server.max_requests = 10;

  std::vector<std::future<JobOutcome>> attacked;
  std::vector<std::future<JobOutcome>> benign;
  for (int i = 0; i < 3; ++i) {
    attacked.push_back(
        fleet.submit(jobs::httpd_request_stream(server, jobs::uid_smash_attack())));
    benign.push_back(
        fleet.submit(jobs::httpd_request_stream(server, jobs::normal_browse(4))));
  }
  for (auto& future : attacked) {
    const JobOutcome outcome = future.get();
    EXPECT_TRUE(outcome.report.attack_detected);
    EXPECT_TRUE(outcome.session_quarantined);
  }
  for (auto& future : benign) EXPECT_TRUE(future.get().ok());

  // Three sessions drew three different uid masks, so the raw diverging
  // values differ — yet all three alarms carry ONE signature.
  const auto log = fleet.quarantine_log();
  ASSERT_EQ(log.size(), 3u);
  const auto signature = core::signature_of(log[0].alarm);
  for (const auto& record : log) {
    EXPECT_EQ(core::signature_of(record.alarm), signature) << record.alarm.describe();
  }

  const auto alerts = fleet.campaign_alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].session_ids.size(), 3u);
  EXPECT_EQ(alerts[0].signature.kind, core::AlarmKind::kUidCheckFailed);
  EXPECT_EQ(fleet.telemetry().snapshot().campaign_alerts, 1u);
}

// --- VariantFleet: injected-clock determinism -------------------------------

TEST(FleetClock, JobLatencyIsMeasuredOnTheInjectedClock) {
  // Regression: run_job used to read std::chrono::steady_clock directly, so
  // under a ManualClock every latency sample was wall-clock noise — poisoning
  // the population experiments' telemetry. Latency must be EXACTLY the manual
  // time the job advanced: not approximately, exactly.
  ManualClock clock;
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 1;
  config.queue_capacity = 8;
  config.seed = 0xC10C;
  config.clock = clock.fn();
  VariantFleet fleet(config);

  const JobOutcome slow = fleet
                              .submit([&clock](core::NVariantSystem&) -> core::RunReport {
                                clock.advance(std::chrono::milliseconds(7));
                                core::RunReport report;
                                report.completed = true;
                                return report;
                              })
                              .get();
  EXPECT_EQ(slow.latency, std::chrono::microseconds(7000));

  // A job that advances nothing took zero manual time — however long the
  // worker actually spent on it.
  const JobOutcome instant = fleet.submit(jobs::uid_churn(5)).get();
  EXPECT_TRUE(instant.ok());
  EXPECT_EQ(instant.latency, std::chrono::microseconds(0));

  const FleetSnapshot snap = fleet.telemetry().snapshot();
  ASSERT_EQ(snap.latency_count, 2u);
  // Samples are exactly {0, 7000}: every derived statistic is exact too.
  EXPECT_DOUBLE_EQ(snap.latency_mean_us, 3500.0);
  EXPECT_DOUBLE_EQ(snap.latency_p50_us, 3500.0);
}

// --- VariantFleet: rotation failure visibility ------------------------------

TEST(FleetRotation, OperatorRotationRediversifiesEveryLane) {
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 3;
  config.queue_capacity = 16;
  config.seed = 0x207A;
  VariantFleet fleet(config);

  std::set<std::string> before;
  for (const auto& fp : fleet.live_fingerprints()) before.insert(diversity_part(fp));
  ASSERT_EQ(fleet.rotate_fleet(), 3u);
  ASSERT_TRUE(
      wait_until([&] { return fleet.telemetry().snapshot().sessions_rotated == 3u; }));
  for (const auto& fp : fleet.live_fingerprints()) {
    EXPECT_FALSE(before.contains(diversity_part(fp))) << fp;
  }
  EXPECT_EQ(fleet.telemetry().snapshot().rotations_failed, 0u);
  EXPECT_TRUE(fleet.submit(jobs::uid_churn(3)).get().ok());
}

TEST(FleetRotation, ExhaustedKeySpaceStopsRotationAndTracesKeyspaceLowOnce) {
  // The exhaustion contract: once the factory's real keyspace
  // (address-partitioning draws from exactly 16 strides) is spent, rotation
  // stops being ordered at all — rotations_failed must NOT grow without
  // bound against an empty factory — the keys_remaining gauge reads 0, and
  // the keyspace_low trace event was recorded exactly once, when the
  // account first read at or below the pool size.
  ManualClock clock;
  auto recorder = std::make_shared<obs::TraceRecorder>(obs::TraceConfig{}, clock.fn());
  FleetConfig config;
  config.spec.n_variants = 2;
  config.spec.variations = {"address-partitioning"};
  config.pool_size = 2;
  config.queue_capacity = 32;
  config.seed = 2026;
  config.clock = clock.fn();
  config.trace = recorder;
  VariantFleet fleet(config);
  EXPECT_EQ(fleet.keyspace().keys_total, 16u);
  EXPECT_EQ(fleet.keyspace().keys_remaining, 14u);  // 2 initial draws

  // 2 initial draws + 14 quarantine respawns = all 16 strides issued.
  for (int i = 0; i < 14; ++i) {
    ASSERT_TRUE(fleet.submit(poison_job("burn the key space")).get().session_quarantined);
  }
  ASSERT_TRUE(fleet.keyspace().exhausted());
  const auto before = fleet.live_fingerprints();

  // Both lanes are alive but NO unique reexpression remains: rotation is
  // refused up front, repeatedly, without ever naming a lane — no amount
  // of elapsed backoff time changes that (an exhausted space cannot refill).
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(fleet.rotate_fleet(), 0u);
    clock.advance(std::chrono::milliseconds(2'000));  // well past any backoff
  }
  const FleetSnapshot snap = fleet.telemetry().snapshot();
  EXPECT_EQ(snap.sessions_rotated, 0u);
  EXPECT_EQ(snap.rotations_failed, 0u);  // no churn against the empty factory
  EXPECT_EQ(snap.keys_total, 16u);
  EXPECT_EQ(snap.keys_remaining, 0u);
  EXPECT_NE(snap.describe().find("0 of 16 keys remaining"), std::string::npos)
      << snap.describe();
  std::vector<obs::TraceEvent> lows;
  for (const auto& event : recorder->all_events()) {
    if (event.kind == obs::TraceEventKind::kKeyspaceLow) lows.push_back(event);
  }
  ASSERT_EQ(lows.size(), 1u);  // exactly once, despite 5 refused rotations
  EXPECT_EQ(lows[0].a, 2u);    // keys remaining at the watermark crossing
  EXPECT_EQ(lows[0].b, 16u);   // keys total
  EXPECT_EQ(fleet.live_fingerprints(), before);  // old sessions stayed in service
  EXPECT_TRUE(fleet.submit(jobs::uid_churn(3)).get().ok());
}

// --- VariantFleet: one admission queue ---------------------------------------

TEST(FleetWorkStealing, AFreedLaneServesTheQueueInAdmissionOrder) {
  // One FIFO queue: whichever lane frees first pops the oldest job. With
  // per-lane queues the freed lane ran its own queue first and only then
  // stole the peer's, serving {1, 3, 2, 4}.
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 2;
  config.queue_capacity = 16;
  config.seed = 0xF1F0;
  VariantFleet fleet(config);

  GatedJob blocker_a;
  GatedJob blocker_b;
  auto fa = fleet.submit(blocker_a.job());
  auto fb = fleet.submit(blocker_b.job());
  blocker_a.wait_started();
  blocker_b.wait_started();

  auto order_mutex = std::make_shared<std::mutex>();
  auto order = std::make_shared<std::vector<int>>();
  std::vector<std::future<JobOutcome>> queued;
  for (int n = 1; n <= 4; ++n) {
    queued.push_back(fleet.submit([order_mutex, order, n](core::NVariantSystem&) {
      const std::lock_guard<std::mutex> lock(*order_mutex);
      order->push_back(n);
      core::RunReport report;
      report.completed = true;
      return report;
    }));
  }
  EXPECT_EQ(fleet.queue_depth(), 4u);

  blocker_a.release();  // one lane frees; the other stays pinned
  for (auto& future : queued) EXPECT_TRUE(future.get().ok());
  {
    const std::lock_guard<std::mutex> lock(*order_mutex);
    EXPECT_EQ(*order, (std::vector<int>{1, 2, 3, 4}));
  }
  blocker_b.release();
  EXPECT_TRUE(fa.get().ok());
  EXPECT_TRUE(fb.get().ok());
}

TEST(FleetWorkStealing, RespawningLaneDoesNotStallTheQueue) {
  auto gate = std::make_shared<std::promise<void>>();
  auto gate_future = gate->get_future().share();
  auto in_respawn = std::make_shared<std::promise<void>>();

  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 2;
  config.queue_capacity = 16;
  config.seed = 0x57EA;
  config.respawn_hook = [in_respawn, gate_future](unsigned) {
    in_respawn->set_value();
    gate_future.wait();  // hold the lane mid-respawn
  };
  VariantFleet fleet(config);

  // Pin BOTH workers so the poison job and the churn backlog queue up before
  // anything runs.
  GatedJob blocker_a;
  GatedJob blocker_b;
  auto fa = fleet.submit(blocker_a.job());
  auto fb = fleet.submit(blocker_b.job());
  blocker_a.wait_started();
  blocker_b.wait_started();

  auto poisoned = fleet.submit(poison_job("steal probe"));
  std::vector<std::future<JobOutcome>> churn;
  for (int i = 0; i < 4; ++i) churn.push_back(fleet.submit(jobs::uid_churn(5)));

  blocker_a.release();
  blocker_b.release();
  in_respawn->get_future().wait();  // one lane is now HELD inside its respawn

  // The held lane cannot pop anything — yet every queued churn job
  // completes, because the surviving lane serves the queue.
  for (auto& future : churn) {
    const JobOutcome outcome = future.get();
    EXPECT_TRUE(outcome.ok()) << outcome.error;
  }

  gate->set_value();  // let the respawn finish
  EXPECT_TRUE(poisoned.get().session_quarantined);
  EXPECT_TRUE(fa.get().ok());
  EXPECT_TRUE(fb.get().ok());
  fleet.shutdown();
  const FleetSnapshot snap = fleet.telemetry().snapshot();
  EXPECT_EQ(snap.sessions_quarantined, 1u);
  EXPECT_EQ(snap.sessions_respawned, 1u);
}

TEST(FleetWorkStealing, JobsSubmittedToAHeldLaneWaitForItsRespawn) {
  // submit_to() pins jobs to their lane, so the held lane's jobs cannot
  // move until the respawn completes: blockers on both lanes, then
  // poison->0, churn c1->1, c2->0, c3->1, c4->0.
  auto gate = std::make_shared<std::promise<void>>();
  auto gate_future = gate->get_future().share();
  auto in_respawn = std::make_shared<std::promise<void>>();

  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 2;
  config.queue_capacity = 16;
  config.seed = 0x57EB;
  config.respawn_hook = [in_respawn, gate_future](unsigned) {
    in_respawn->set_value();
    gate_future.wait();
  };
  VariantFleet fleet(config);

  GatedJob blocker_a;
  GatedJob blocker_b;
  auto fa = fleet.submit(blocker_a.job());
  auto fb = fleet.submit(blocker_b.job());
  blocker_a.wait_started();
  blocker_b.wait_started();

  auto poisoned = fleet.submit_to(0, poison_job("stall probe"));
  auto c1 = fleet.submit_to(1, jobs::uid_churn(5));
  auto c2 = fleet.submit_to(0, jobs::uid_churn(5));
  auto c3 = fleet.submit_to(1, jobs::uid_churn(5));
  auto c4 = fleet.submit_to(0, jobs::uid_churn(5));

  blocker_a.release();
  blocker_b.release();
  in_respawn->get_future().wait();  // lane 0 held mid-respawn

  // Lane 1 serves its own jobs...
  EXPECT_TRUE(c1.get().ok());
  EXPECT_TRUE(c3.get().ok());
  // ...but lane 0's jobs are provably stuck: with the lane held, these
  // futures cannot resolve no matter how long we wait.
  EXPECT_EQ(c2.wait_for(std::chrono::milliseconds(0)), std::future_status::timeout);
  EXPECT_EQ(c4.wait_for(std::chrono::milliseconds(0)), std::future_status::timeout);

  gate->set_value();
  EXPECT_TRUE(poisoned.get().session_quarantined);
  EXPECT_TRUE(c2.get().ok());
  EXPECT_TRUE(c4.get().ok());
  EXPECT_TRUE(fa.get().ok());
  EXPECT_TRUE(fb.get().ok());
}

TEST(FleetWorkStealing, RetiredLaneFailsItsOwnJobsAndPeersServeTheRest) {
  // Two keys for two lanes: the initial sessions spend the budget, so the
  // first respawn fails and its lane retires.
  auto gate = std::make_shared<std::promise<void>>();
  auto gate_future = gate->get_future().share();
  auto in_respawn = std::make_shared<std::promise<void>>();

  FleetConfig config;
  config.spec = uid_spec();
  config.spec.max_unique_keys = 2;
  config.pool_size = 2;
  config.queue_capacity = 16;
  config.seed = 0xDEAD;
  config.respawn_hook = [in_respawn, gate_future](unsigned) {
    in_respawn->set_value();
    gate_future.wait();
  };
  VariantFleet fleet(config);

  GatedJob pin;  // keeps lane 1 busy while lane 0 retires
  auto pinned = fleet.submit_to(1, pin.job());
  pin.wait_started();
  auto poisoned = fleet.submit_to(0, poison_job("retire probe"));
  in_respawn->get_future().wait();  // lane 0 held mid-respawn

  auto for_lane0 = fleet.submit_to(0, jobs::uid_churn(3));
  auto for_anyone = fleet.submit(jobs::uid_churn(3));
  EXPECT_EQ(fleet.queue_depth(), 2u);

  gate->set_value();  // the respawn fails: lane 0 retires
  EXPECT_TRUE(poisoned.get().session_quarantined);
  EXPECT_EQ(for_lane0.get().error, VariantFleet::kDeadLaneError);
  auto late = fleet.submit_to(0, jobs::uid_churn(3));
  EXPECT_EQ(late.wait_for(std::chrono::milliseconds(0)), std::future_status::ready);
  EXPECT_EQ(fleet.queue_depth(), 1u);  // the untargeted job waits for lane 1

  pin.release();
  const JobOutcome pin_outcome = pinned.get();
  const JobOutcome served = for_anyone.get();
  EXPECT_TRUE(served.ok()) << served.error;
  EXPECT_EQ(served.session_id, pin_outcome.session_id);  // lane 1's session
  EXPECT_EQ(late.get().error, VariantFleet::kDeadLaneError);
  const auto log = fleet.quarantine_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].replacement_fingerprint.rfind("(respawn failed", 0), 0u);
}

TEST(FleetWorkStealing, SubmitToAnUnknownLaneThrows) {
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 2;
  config.seed = 0x0B0B;
  VariantFleet fleet(config);
  EXPECT_THROW((void)fleet.submit_to(fleet.pool_size(), jobs::uid_churn(3)), std::out_of_range);
  EXPECT_EQ(fleet.telemetry().snapshot().jobs_submitted, 0u);
  EXPECT_TRUE(fleet.submit_to(fleet.pool_size() - 1, jobs::uid_churn(3)).get().ok());
}

// --- VariantFleet: forensics in constant space --------------------------------

TEST(FleetForensics, TheQuarantineLogKeepsTheNewest64) {
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 1;
  config.seed = 0xF0F0;
  VariantFleet fleet(config);
  std::vector<std::uint64_t> quarantined;
  for (int i = 0; i < 200; ++i) {
    const JobOutcome outcome = fleet.submit(poison_job("forensics probe")).get();
    ASSERT_TRUE(outcome.session_quarantined);
    quarantined.push_back(outcome.session_id);
  }
  EXPECT_EQ(fleet.telemetry().snapshot().sessions_quarantined, 200u);
  const auto log = fleet.quarantine_log();
  ASSERT_EQ(log.size(), VariantFleet::kQuarantineLogCapacity);
  const std::size_t first_kept = quarantined.size() - log.size();
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].session_id, quarantined[first_kept + i]) << "record " << i;
  }
  EXPECT_EQ(log.back().session_id, quarantined.back());  // newest last
}

TEST(FleetForensics, AFailedRespawnCountsOneRetiredLane) {
  // One key for one lane: the initial session spends it, so the respawn
  // fails and the lane retires.
  FleetConfig config;
  config.spec = uid_spec();
  config.spec.max_unique_keys = 1;
  config.pool_size = 1;
  config.seed = 0xDEAF;
  VariantFleet fleet(config);
  EXPECT_TRUE(fleet.submit(poison_job("retire probe")).get().session_quarantined);
  const FleetSnapshot snap = fleet.telemetry().snapshot();
  EXPECT_EQ(snap.lanes_retired, 1u);
  EXPECT_EQ(snap.sessions_quarantined, 1u);
  EXPECT_EQ(snap.sessions_respawned, 0u);
}

// --- VariantFleet: graceful drain -------------------------------------------

TEST(FleetDrain, ZeroDeadlineAbandonsTheQueueButFinishesInFlightJobs) {
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 2;
  config.queue_capacity = 16;
  config.seed = 0xD7A1;
  VariantFleet fleet(config);

  GatedJob blocker_a;
  GatedJob blocker_b;
  auto fa = fleet.submit(blocker_a.job());
  auto fb = fleet.submit(blocker_b.job());
  blocker_a.wait_started();
  blocker_b.wait_started();

  std::vector<std::future<JobOutcome>> queued;
  for (int i = 0; i < 4; ++i) queued.push_back(fleet.submit(jobs::uid_churn(5)));
  ASSERT_EQ(fleet.queue_depth(), 4u);

  DrainReport report;
  std::thread drainer([&] { report = fleet.shutdown(std::chrono::milliseconds(0)); });

  // Every queued job's future resolves as abandoned (the workers are pinned,
  // so nothing else can resolve them).
  std::set<std::uint64_t> abandoned_ids;
  for (auto& future : queued) {
    const JobOutcome outcome = future.get();
    EXPECT_EQ(outcome.error, VariantFleet::kAbandonedError);
    EXPECT_FALSE(outcome.session_quarantined);
    abandoned_ids.insert(outcome.job_id);
  }

  // In-flight jobs are NOT abandoned: the drain joins only after they finish.
  blocker_a.release();
  blocker_b.release();
  EXPECT_TRUE(fa.get().ok());
  EXPECT_TRUE(fb.get().ok());
  drainer.join();

  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.jobs_abandoned, 4u);
  EXPECT_EQ(std::set<std::uint64_t>(report.abandoned_job_ids.begin(),
                                    report.abandoned_job_ids.end()),
            abandoned_ids);
  const FleetSnapshot snap = fleet.telemetry().snapshot();
  EXPECT_EQ(snap.jobs_abandoned, report.jobs_abandoned);  // telemetry must match
  EXPECT_EQ(snap.jobs_completed, 2u);
  EXPECT_EQ(snap.jobs_submitted, snap.jobs_completed + snap.jobs_abandoned);
  EXPECT_NE(report.describe().find("abandoned"), std::string::npos);
}

TEST(FleetDrain, ManualClockDeadlineIsHonored) {
  ManualClock clock;
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 1;
  config.queue_capacity = 8;
  config.seed = 0xD7A2;
  config.clock = clock.fn();
  VariantFleet fleet(config);
  // Event-driven drain: every advance() wakes the drain loop so it re-reads
  // the manual clock instead of relying on its coarse fallback poll.
  clock.subscribe([&fleet] { fleet.notify_time_advanced(); });

  GatedJob blocker;
  auto fb = fleet.submit(blocker.job());
  blocker.wait_started();
  auto q1 = fleet.submit(jobs::uid_churn(5));
  auto q2 = fleet.submit(jobs::uid_churn(5));

  DrainReport report;
  std::thread drainer([&] { report = fleet.shutdown(std::chrono::milliseconds(100)); });

  // Time is frozen and the only worker is pinned, so the queued jobs sit
  // until WE expire the deadline by advancing the clock.
  while (q1.wait_for(std::chrono::milliseconds(0)) != std::future_status::ready) {
    clock.advance(std::chrono::milliseconds(200));
    std::this_thread::yield();
  }
  EXPECT_EQ(q1.get().error, VariantFleet::kAbandonedError);
  EXPECT_EQ(q2.get().error, VariantFleet::kAbandonedError);

  blocker.release();
  EXPECT_TRUE(fb.get().ok());
  drainer.join();
  EXPECT_EQ(report.jobs_abandoned, 2u);
  EXPECT_EQ(fleet.telemetry().snapshot().jobs_abandoned, 2u);
}

TEST(FleetDrain, DrainIsCleanWhenTheQueueEmptiesInTime) {
  ManualClock clock;  // frozen clock = the deadline can never expire
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 2;
  config.queue_capacity = 16;
  config.seed = 0xD7A3;
  config.clock = clock.fn();
  VariantFleet fleet(config);

  std::vector<std::future<JobOutcome>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(fleet.submit(jobs::uid_churn(5)));
  const DrainReport report = fleet.shutdown(std::chrono::milliseconds(1000));
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.jobs_abandoned, 0u);
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
  EXPECT_EQ(fleet.telemetry().snapshot().jobs_abandoned, 0u);
  EXPECT_NE(report.describe().find("cleanly"), std::string::npos);
}

TEST(FleetDrain, TrySubmitRefusalsDuringDrainAreCountedExactly) {
  // Regression: try_submit racing a drain must refuse AND count — once per
  // call — whether the queue is full, mid-abandonment, or already empty.
  ManualClock clock;
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 1;
  config.queue_capacity = 1;
  config.seed = 0xD7A4;
  config.clock = clock.fn();
  VariantFleet fleet(config);
  clock.subscribe([&fleet] { fleet.notify_time_advanced(); });

  GatedJob blocker;
  auto fb = fleet.submit(blocker.job());
  blocker.wait_started();
  auto queued = fleet.submit(jobs::uid_churn(5));  // fills the single slot
  ASSERT_EQ(fleet.queue_depth(), 1u);

  // Refusal 1: full queue, still accepting.
  EXPECT_FALSE(fleet.try_submit(jobs::uid_churn(1)).has_value());

  DrainReport report;
  std::thread drainer([&] { report = fleet.shutdown(std::chrono::milliseconds(100)); });

  // Refusal 2: the queue is still full — and possibly mid-drain. Both paths
  // must refuse and count exactly once.
  EXPECT_FALSE(fleet.try_submit(jobs::uid_churn(1)).has_value());

  while (queued.wait_for(std::chrono::milliseconds(0)) != std::future_status::ready) {
    clock.advance(std::chrono::milliseconds(200));
    std::this_thread::yield();
  }
  EXPECT_EQ(queued.get().error, VariantFleet::kAbandonedError);

  // Refusal 3: empty queue, but draining.
  EXPECT_FALSE(fleet.try_submit(jobs::uid_churn(1)).has_value());

  blocker.release();
  EXPECT_TRUE(fb.get().ok());
  drainer.join();

  const FleetSnapshot snap = fleet.telemetry().snapshot();
  EXPECT_EQ(snap.jobs_rejected, 3u);
  EXPECT_EQ(report.jobs_abandoned, 1u);
  // Admission ledger balances: everything admitted either ran or was
  // abandoned; refusals never leak into the submitted count.
  EXPECT_EQ(snap.jobs_submitted, 2u);
  EXPECT_EQ(snap.jobs_submitted, snap.jobs_completed + snap.jobs_abandoned);
}

// --- SessionFactory: diversity-draw uniqueness ------------------------------

TEST(SessionFactoryUniqueness, NeverReissuesADiversityKey) {
  SessionFactory factory(uid_spec(), /*seed=*/0x0D1F, variants::builtin_registry());
  std::set<std::string> keys;
  for (int i = 0; i < 64; ++i) {
    auto session = factory.make_session();
    ASSERT_TRUE(session.has_value()) << session.error();
    EXPECT_TRUE(keys.insert(session->diversity_key).second)
        << "duplicate reexpression issued: " << session->diversity_key;
  }
  EXPECT_EQ(factory.unique_keys_issued(), 64u);
}

TEST(SessionFactoryUniqueness, ExhaustedParameterSpaceIsAnExplicitError) {
  // address-partitioning draws its stride from exactly 16 values: the 17th
  // session CANNOT be uniquely diversified, and the factory must say so
  // rather than silently respawn a reexpression an attacker already probed.
  SessionSpec spec;
  spec.n_variants = 2;
  spec.variations = {"address-partitioning"};
  SessionFactory factory(spec, /*seed=*/2026, variants::builtin_registry());
  std::set<std::string> keys;
  for (int i = 0; i < 16; ++i) {
    auto session = factory.make_session();
    ASSERT_TRUE(session.has_value()) << "draw " << i << ": " << session.error();
    keys.insert(session->diversity_key);
  }
  EXPECT_EQ(keys.size(), 16u);
  auto exhausted = factory.make_session();
  ASSERT_FALSE(exhausted.has_value());
  EXPECT_NE(exhausted.error().find("exhausted redraws"), std::string::npos);
  EXPECT_NE(exhausted.error().find("duplicate diversity draw"), std::string::npos);
}

TEST(SessionFactoryUniqueness, QuarantineBurstRespawnsUnderSharedSeedStayUnique) {
  // Regression: a quarantine-heavy burst respawns many sessions from ONE
  // seeded generator; no fingerprint may repeat across the fleet's lifetime.
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = 2;
  config.queue_capacity = 32;
  config.seed = 0xB125;
  VariantFleet fleet(config);

  std::vector<std::future<JobOutcome>> poisoned;
  for (int i = 0; i < 10; ++i) poisoned.push_back(fleet.submit(poison_job("burst")));
  for (auto& future : poisoned) EXPECT_TRUE(future.get().session_quarantined);

  std::map<std::string, std::set<std::string>> sessions_by_key;
  for (const auto& record : fleet.quarantine_log()) {
    sessions_by_key[diversity_part(record.fingerprint)].insert(record.fingerprint);
    sessions_by_key[diversity_part(record.replacement_fingerprint)].insert(
        record.replacement_fingerprint);
  }
  for (const auto& fp : fleet.live_fingerprints()) {
    sessions_by_key[diversity_part(fp)].insert(fp);
  }
  // Every diversity key belongs to exactly one session, ever.
  for (const auto& [key, sessions] : sessions_by_key) {
    EXPECT_EQ(sessions.size(), 1u) << "reexpression " << key << " was issued twice";
  }
  EXPECT_EQ(fleet.quarantine_log().size(), 10u);
}

}  // namespace
}  // namespace nv::fleet
