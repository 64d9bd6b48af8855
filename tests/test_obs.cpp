// Observability layer: TraceRecorder semantics (rings, sampling, masks,
// histograms), the exporters, and — the tentpole contract — the causal chains
// the fleet and cluster thread through their trace events: session draw ->
// job admission -> quarantine -> CampaignAlert -> gossip publish ->
// cross-shard delivery -> remote tighten -> rotation. Everything runs on
// ManualClock with fixed seeds, so two identical runs export byte-identical
// Chrome traces (the golden-determinism test pins exactly that).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/telemetry.h"
#include "fleet/fleet.h"
#include "fleet/telemetry.h"
#include "fleet_test_harness.h"
#include "guest/runners.h"
#include "obs/exporters.h"
#include "obs/trace.h"
#include "test_helpers.h"

namespace nv::obs {
namespace {

using fleet::FleetConfig;
using fleet::ManualClock;
using fleet::VariantFleet;
using fleet::harness::poison_job;
using fleet::harness::uid_spec;
using fleet::harness::wait_until;

using std::chrono::milliseconds;

fleet::FleetJob clean_job() {
  return [](core::NVariantSystem&) {
    core::RunReport report;
    report.completed = true;
    return report;
  };
}

/// Events of one kind across every track.
std::vector<TraceEvent> events_of(const TraceRecorder& recorder, TraceEventKind kind) {
  std::vector<TraceEvent> out;
  for (const auto& event : recorder.all_events()) {
    if (event.kind == kind) out.push_back(event);
  }
  return out;
}

bool any_span_equals(const std::vector<TraceEvent>& events, std::uint64_t span) {
  return std::any_of(events.begin(), events.end(),
                     [span](const TraceEvent& e) { return e.span == span; });
}

// --- TraceRecorder -----------------------------------------------------------

TEST(TraceRecorderTest, TracksAreDenseStableAndFindOrCreate) {
  TraceRecorder recorder;
  EXPECT_EQ(recorder.track_names(), (std::vector<std::string>{"trace"}));
  const auto a = recorder.track("fleet.ops");
  const auto b = recorder.track("fleet.lane0");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(recorder.track("fleet.ops"), a);  // find, not create
  EXPECT_EQ(recorder.track_names(),
            (std::vector<std::string>{"trace", "fleet.ops", "fleet.lane0"}));
}

TEST(TraceRecorderTest, TimestampsComeFromTheInjectedClock) {
  ManualClock clock;
  TraceRecorder recorder({}, clock.fn());
  const auto track = recorder.track("t");
  recorder.record(track, TraceEventKind::kJobAdmitted, 0, 0, 1);
  clock.advance(milliseconds(3));
  recorder.record(track, TraceEventKind::kJobStarted, 0, 0, 2);
  const auto events = recorder.events(track);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at_us, 0);
  EXPECT_EQ(events[1].at_us, 3'000);
  EXPECT_EQ(events[0].a, 1u);
  EXPECT_EQ(events[1].a, 2u);
}

TEST(TraceRecorderTest, RingOverflowKeepsNewestAndCountsDrops) {
  TraceConfig config;
  config.ring_capacity = 4;
  TraceRecorder recorder(config);
  const auto track = recorder.track("ring");
  for (std::uint64_t i = 0; i < 10; ++i) {
    recorder.record(track, TraceEventKind::kJobAdmitted, 0, 0, i);
  }
  const auto events = recorder.events(track);
  ASSERT_EQ(events.size(), 4u);  // newest four retained, oldest first
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].a, 6 + i);
  EXPECT_EQ(recorder.dropped(), 6u);
  EXPECT_EQ(recorder.recorded(), 10u);
}

TEST(TraceRecorderTest, KindMaskAndMasterSwitchSuppressRecording) {
  TraceConfig config;
  config.kind_mask = TraceConfig::kind_bit(TraceEventKind::kQuarantine);
  TraceRecorder recorder(config);
  const auto track = recorder.track("masked");
  recorder.record(track, TraceEventKind::kJobAdmitted);  // masked out
  recorder.record(track, TraceEventKind::kQuarantine);
  EXPECT_FALSE(recorder.enabled(TraceEventKind::kJobAdmitted));
  EXPECT_TRUE(recorder.enabled(TraceEventKind::kQuarantine));
  ASSERT_EQ(recorder.events(track).size(), 1u);
  EXPECT_EQ(recorder.events(track)[0].kind, TraceEventKind::kQuarantine);

  TraceRecorder off(TraceConfig::disabled());
  const auto t = off.track("off");
  off.record(t, TraceEventKind::kQuarantine);
  EXPECT_EQ(off.recorded(), 0u);
  EXPECT_FALSE(off.enabled(TraceEventKind::kQuarantine));
}

TEST(TraceRecorderTest, SyscallRoundsSampleAtThePerTrackStride) {
  TraceConfig config;
  config.syscall_round_sample = 4;
  TraceRecorder recorder(config);
  const auto a = recorder.track("lane0");
  const auto b = recorder.track("lane1");
  // sample_round() is the hot-path gate: it advances the per-track counter
  // and only the 1-in-Nth call says "keep" — the call site then records.
  for (int i = 0; i < 8; ++i) {
    if (recorder.sample_round(a)) recorder.record(a, TraceEventKind::kSyscallRound, 0, 0, i);
  }
  for (int i = 0; i < 3; ++i) {
    if (recorder.sample_round(b)) recorder.record(b, TraceEventKind::kSyscallRound, 0, 0, i);
  }
  // Stride counts per track: lane0 keeps rounds 0 and 4; lane1's counter is
  // its own, so its round 0 is kept too.
  ASSERT_EQ(recorder.events(a).size(), 2u);
  EXPECT_EQ(recorder.events(a)[0].a, 0u);
  EXPECT_EQ(recorder.events(a)[1].a, 4u);
  ASSERT_EQ(recorder.events(b).size(), 1u);

  TraceConfig zero = config;
  zero.syscall_round_sample = 0;  // 0 disables the kind entirely
  TraceRecorder none(zero);
  const auto t = none.track("lane");
  EXPECT_FALSE(none.sample_round(t));
  TraceRecorder off(TraceConfig::disabled());
  EXPECT_FALSE(off.sample_round(off.track("lane")));
}

TEST(TraceRecorderTest, KindMaskAndRoundSampleRearmAtRuntime) {
  // PR 7 follow-on: the mask and the sampling stride are LIVE knobs, not
  // construction-time constants — a fleet drops the stride to 1 when a
  // campaign alert fires so the rounds around an active attack are all kept.
  ManualClock clock;
  TraceConfig config;
  config.syscall_round_sample = 4;
  TraceRecorder recorder(config, clock.fn());
  const auto track = recorder.track("lane0");
  for (int i = 0; i < 4; ++i) {
    if (recorder.sample_round(track)) recorder.record(track, TraceEventKind::kSyscallRound);
    clock.advance(milliseconds(1));
  }
  ASSERT_EQ(recorder.events(track).size(), 1u);  // stride 4 kept round 0 only

  recorder.set_syscall_round_sample(1);  // the campaign-alert escalation
  EXPECT_EQ(recorder.syscall_round_sample(), 1u);
  for (int i = 0; i < 4; ++i) {
    if (recorder.sample_round(track)) recorder.record(track, TraceEventKind::kSyscallRound);
    clock.advance(milliseconds(1));
  }
  EXPECT_EQ(recorder.events(track).size(), 5u);  // every subsequent round kept

  // The kind mask re-arms the same way: masking the kind out mid-run stops
  // recording without touching the recorder's master switch.
  recorder.set_kind_mask(TraceConfig::kind_bit(TraceEventKind::kQuarantine));
  EXPECT_FALSE(recorder.enabled(TraceEventKind::kSyscallRound));
  EXPECT_FALSE(recorder.sample_round(track));
  recorder.record(track, TraceEventKind::kSyscallRound);
  EXPECT_EQ(recorder.events(track).size(), 5u);
  recorder.set_kind_mask(~std::uint64_t{0});
  EXPECT_TRUE(recorder.enabled(TraceEventKind::kSyscallRound));
  EXPECT_TRUE(recorder.sample_round(track));
}

TEST(ObsExportersTest, PrometheusLabelValuesAreEscaped) {
  // Exposition format: backslash, double-quote, and newline in a label VALUE
  // must be escaped — an operator-supplied instance name must not be able to
  // break the series syntax.
  EXPECT_EQ(prometheus_label_escape(R"(plain_value-1)"), "plain_value-1");
  EXPECT_EQ(prometheus_label_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(prometheus_label_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(prometheus_label_escape("a\nb"), "a\\nb");

  fleet::FleetSnapshot snap;
  snap.jobs_submitted = 2;
  const std::string text =
      expose_metrics(snap, nullptr, "nv_fleet", "host\"1\\z\nq");
  EXPECT_NE(text.find("nv_fleet_jobs_submitted{instance=\"host\\\"1\\\\z\\nq\"} 2"),
            std::string::npos);
  // No raw quote or newline may survive inside the label value.
  EXPECT_EQ(text.find("host\"1"), std::string::npos);
  EXPECT_EQ(text.find("\nq\"}"), std::string::npos);
}

TEST(ObsExportersTest, PipelineCountersAppearInFleetExposition) {
  fleet::FleetSnapshot snap;
  snap.syscall_rounds = 9;
  const std::string text = expose_metrics(snap);
  EXPECT_NE(text.find("nv_fleet_syscall_rounds 9"), std::string::npos);
}

TEST(TraceRecorderTest, OutOfRangeTrackAliasesTheOverflowTrack) {
  TraceRecorder recorder;
  recorder.record(999, TraceEventKind::kJobAdmitted, 0, 0, 42);
  const auto events = recorder.events(0);  // track 0 = "trace", the alias
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].a, 42u);
}

TEST(TraceRecorderTest, SpansAreUniqueAndNeverZero) {
  TraceRecorder recorder;
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    const auto span = recorder.new_span();
    EXPECT_NE(span, 0u);
    EXPECT_TRUE(seen.insert(span).second);
  }
}

TEST(TraceRecorderTest, HistogramsBucketObservationsLockFree) {
  TraceRecorder recorder;
  const auto id = recorder.histogram("lead_us.input");
  EXPECT_EQ(recorder.histogram("lead_us.input"), id);  // find-or-create
  recorder.observe(id, 1.5);
  recorder.observe(id, 30.0);
  recorder.observe(id, 2'000'000.0);  // beyond the last bound: +Inf bucket
  const auto snaps = recorder.histograms();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].name, "lead_us.input");
  EXPECT_EQ(snaps[0].count, 3u);
  EXPECT_DOUBLE_EQ(snaps[0].sum, 2'000'031.5);
  EXPECT_EQ(snaps[0].buckets[1], 1u);   // 1.5 -> le=2
  EXPECT_EQ(snaps[0].buckets[5], 1u);   // 30 -> le=50
  EXPECT_EQ(snaps[0].buckets[16], 1u);  // +Inf
}

// --- Fleet instrumentation ---------------------------------------------------

FleetConfig traced_fleet(ManualClock& clock, std::shared_ptr<TraceRecorder> recorder,
                         unsigned pool_size = 2) {
  FleetConfig config;
  config.spec = uid_spec();
  config.pool_size = pool_size;
  config.queue_capacity = 16;
  config.seed = 0xD15EA5E;
  config.campaign.threshold = 3;
  config.campaign.window = milliseconds(10'000);
  config.campaign.rotate_fleet_on_alert = true;
  config.adaptive.enabled = true;
  config.adaptive.arm_rotation = false;
  config.adaptive.tightened_rotation_interval = milliseconds(0);
  config.adaptive.quiet_period = milliseconds(60'000);
  config.clock = clock.fn();
  config.trace = std::move(recorder);
  return config;
}

TEST(TraceFleetTest, CampaignReadsAsOneCausalChainFromDrawToRotation) {
  ManualClock clock;
  auto recorder = std::make_shared<TraceRecorder>(TraceConfig{}, clock.fn());
  VariantFleet fleet(traced_fleet(clock, recorder));

  std::vector<fleet::JobOutcome> outcomes;
  for (int i = 0; i < 3; ++i) {
    outcomes.push_back(fleet.submit(poison_job("trace chain probe")).get());
  }

  // Every quarantined job's span threads admission -> start -> quarantine,
  // and the start/quarantine point back at a recorded session draw.
  const auto draws = events_of(*recorder, TraceEventKind::kSessionDraw);
  const auto admits = events_of(*recorder, TraceEventKind::kJobAdmitted);
  const auto starts = events_of(*recorder, TraceEventKind::kJobStarted);
  const auto quarantines = events_of(*recorder, TraceEventKind::kQuarantine);
  const auto respawns = events_of(*recorder, TraceEventKind::kRespawn);
  ASSERT_EQ(quarantines.size(), 3u);
  for (const auto& outcome : outcomes) {
    ASSERT_NE(outcome.trace_span, 0u);
    EXPECT_TRUE(any_span_equals(admits, outcome.trace_span));
    EXPECT_TRUE(any_span_equals(starts, outcome.trace_span));
    EXPECT_TRUE(any_span_equals(quarantines, outcome.trace_span));
  }
  for (const auto& start : starts) {
    EXPECT_TRUE(any_span_equals(draws, start.parent)) << "start not caused by a draw";
  }
  for (const auto& quarantine : quarantines) {
    EXPECT_TRUE(any_span_equals(draws, quarantine.parent));
  }
  // Each respawn is caused by exactly one of the quarantining jobs and
  // DEFINES the replacement session's draw span (the factory records the
  // same span). all_events() groups by lane track, so match as a set.
  ASSERT_EQ(respawns.size(), 3u);
  std::set<std::uint64_t> respawn_parents;
  for (const auto& respawn : respawns) {
    respawn_parents.insert(respawn.parent);
    EXPECT_TRUE(any_span_equals(draws, respawn.span));
  }
  std::set<std::uint64_t> job_spans;
  for (const auto& outcome : outcomes) job_spans.insert(outcome.trace_span);
  EXPECT_EQ(respawn_parents, job_spans);

  // The third incident crossed the threshold: ONE alert, parented to that
  // job's span, with the tighten and the escalation rotation hanging off it.
  const auto alerts = events_of(*recorder, TraceEventKind::kCampaignAlert);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_NE(alerts[0].span, 0u);
  EXPECT_EQ(alerts[0].parent, outcomes[2].trace_span);
  EXPECT_EQ(alerts[0].b, 3u);  // three member quarantines

  const auto tightens = events_of(*recorder, TraceEventKind::kPolicyTightened);
  ASSERT_EQ(tightens.size(), 1u);
  EXPECT_EQ(tightens[0].parent, alerts[0].span);

  // The rotation the alert requested resolves lazily before the flagged
  // lane's next job; its kRotation event must close the chain to the alert.
  // One clean job per lane makes sure the flagged lane runs one.
  for (unsigned lane = 0; lane < fleet.pool_size(); ++lane) {
    (void)fleet.submit_to(lane, clean_job()).get();
  }
  ASSERT_GE(fleet.telemetry().snapshot().sessions_rotated, 1u);
  const auto rotations = events_of(*recorder, TraceEventKind::kRotation);
  ASSERT_GE(rotations.size(), 1u);
  EXPECT_EQ(rotations[0].parent, alerts[0].span);
  EXPECT_EQ(rotations[0].b, 0u);  // lazy rotation, not deadline-forced
}

TEST(TraceFleetTest, GoldenManualClockRunsExportByteIdenticalTraces) {
  // THE determinism contract: same seed, same ManualClock, same job script =>
  // the exported Chrome trace is byte-identical, run after run. One lane and
  // sequential .get()s make every interleaving deterministic.
  const auto run_once = [] {
    ManualClock clock;
    auto recorder = std::make_shared<TraceRecorder>(TraceConfig{}, clock.fn());
    VariantFleet fleet(traced_fleet(clock, recorder, /*pool_size=*/1));
    (void)fleet.submit(clean_job()).get();
    for (int i = 0; i < 3; ++i) {
      (void)fleet.submit(poison_job("golden storm")).get();
      clock.advance(milliseconds(5));
    }
    (void)fleet.submit(clean_job()).get();
    fleet.shutdown();
    return to_chrome_trace(*recorder);
  };
  const std::string first = run_once();
  EXPECT_EQ(first, run_once());
  EXPECT_NE(first.find("campaign_alert"), std::string::npos);
  EXPECT_NE(first.find("quarantine"), std::string::npos);
}

TEST(TraceSessionTest, GoldenManualClockRunsTraceEverySyscallRound) {
  // The determinism contract for a session's own rounds: same guest, same
  // ManualClock => byte-identical Chrome traces, with every round visible as
  // a syscall_round event (a = syscall number, b = behaviour class).
  const auto run_once = [] {
    ManualClock clock;
    TraceConfig config;
    config.syscall_round_sample = 1;  // keep every round: the full chain
    auto recorder = std::make_shared<TraceRecorder>(config, clock.fn());
    const auto system = core::NVariantSystem::Builder().n_variants(2).trace(recorder).build();
    nv::testing::LambdaGuest guest([](guest::GuestContext& ctx) {
      auto fd = ctx.open("/out.txt", os::OpenFlags::kWrite | os::OpenFlags::kCreate);
      ASSERT_TRUE(fd.has_value());
      for (const char* chunk : {"a", "b", "c", "d"}) {
        ASSERT_TRUE(ctx.write(*fd, chunk).has_value());
      }
      (void)ctx.close(*fd);
      for (int i = 0; i < 3; ++i) (void)ctx.getpid();
      ctx.exit(0);
    });
    const auto report = guest::run_nvariant(*system, guest);
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.syscall_rounds, 10u);  // open, 4 writes, close, 3 getpids, exit
    EXPECT_EQ(events_of(*recorder, TraceEventKind::kSyscallRound).size(), 10u);
    return to_chrome_trace(*recorder);
  };
  const std::string first = run_once();
  EXPECT_EQ(first, run_once());
  EXPECT_NE(first.find("\"syscall_round\""), std::string::npos);
}

TEST(TraceFleetTest, RingDropsSurfaceThroughFleetTelemetry) {
  ManualClock clock;
  TraceConfig config;
  config.ring_capacity = 2;  // force overflow on the ops track immediately
  auto recorder = std::make_shared<TraceRecorder>(config, clock.fn());
  VariantFleet fleet(traced_fleet(clock, recorder));
  for (int i = 0; i < 8; ++i) (void)fleet.submit(clean_job()).get();
  EXPECT_GT(recorder->dropped(), 0u);
  EXPECT_EQ(fleet.telemetry().snapshot().trace_drops, recorder->dropped());
}

// --- Cluster instrumentation -------------------------------------------------

cluster::ClusterConfig traced_cluster(ManualClock& clock,
                                      std::shared_ptr<TraceRecorder> recorder,
                                      unsigned shards = 3) {
  cluster::ClusterConfig config;
  config.shards = shards;
  config.trace = std::move(recorder);
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

TEST(TraceClusterTest, RemoteTightensCarryTheOriginShardsAlertSpan) {
  // K = 3: the campaign on shard 0 must read as ONE chain across the whole
  // cluster — alert -> gossip publish -> two deliveries -> two remote
  // tightens, every hop parented to the origin's alert span.
  ManualClock clock;
  auto recorder = std::make_shared<TraceRecorder>(TraceConfig{}, clock.fn());
  cluster::FleetCluster cluster(traced_cluster(clock, recorder));
  for (int i = 0; i < 3; ++i) {
    (void)cluster.submit_to(0, poison_job("cross-shard campaign")).get();
  }

  const auto alerts = events_of(*recorder, TraceEventKind::kCampaignAlert);
  ASSERT_EQ(alerts.size(), 1u);
  const std::uint64_t alert_span = alerts[0].span;
  ASSERT_NE(alert_span, 0u);
  const auto names = recorder->track_names();
  EXPECT_EQ(names.at(alerts[0].track), "shard0.ops");

  const auto publishes = events_of(*recorder, TraceEventKind::kGossipPublish);
  ASSERT_EQ(publishes.size(), 1u);
  EXPECT_EQ(publishes[0].parent, alert_span);
  EXPECT_EQ(publishes[0].a, 0u);  // origin shard

  const auto delivers = events_of(*recorder, TraceEventKind::kGossipDeliver);
  ASSERT_EQ(delivers.size(), 2u);
  std::set<std::uint64_t> warned;
  for (const auto& deliver : delivers) {
    EXPECT_EQ(deliver.parent, alert_span);
    EXPECT_EQ(deliver.a, 0u);  // from shard 0
    warned.insert(deliver.b);
  }
  EXPECT_EQ(warned, (std::set<std::uint64_t>{1, 2}));

  const auto tightens = events_of(*recorder, TraceEventKind::kRemoteTighten);
  ASSERT_EQ(tightens.size(), 2u);
  std::set<std::string> tightened_tracks;
  for (const auto& tighten : tightens) {
    EXPECT_EQ(tighten.parent, alert_span);
    tightened_tracks.insert(names.at(tighten.track));
  }
  EXPECT_EQ(tightened_tracks, (std::set<std::string>{"shard1.ops", "shard2.ops"}));
}

TEST(TraceClusterTest, TickPumpsEnforcesAndSweepsTightenedShards) {
  ManualClock clock;
  auto recorder = std::make_shared<TraceRecorder>(TraceConfig{}, clock.fn());
  auto config = traced_cluster(clock, recorder);
  config.sweep_interval = milliseconds(100);
  cluster::FleetCluster cluster(config);

  // Quiet tick: interval not yet elapsed, nothing tightened, nothing swept.
  const auto quiet = cluster.tick();
  EXPECT_EQ(quiet.tick, 1u);
  EXPECT_FALSE(quiet.swept);
  EXPECT_TRUE(quiet.sweeps.empty());
  EXPECT_EQ(quiet.forced_rotations, 0u);

  // Campaign on shard 0 tightens every shard (gossip); once the interval
  // elapses the next tick sweeps ALL of them — flagging their lanes for
  // rotation and redrawing their network identities.
  for (int i = 0; i < 3; ++i) {
    (void)cluster.submit_to(0, poison_job("sweep me")).get();
  }
  clock.advance(milliseconds(100));
  const auto swept = cluster.tick();
  EXPECT_EQ(swept.tick, 2u);
  EXPECT_TRUE(swept.swept);
  ASSERT_EQ(swept.sweeps.size(), 3u);
  for (const auto& sweep : swept.sweeps) {
    EXPECT_EQ(sweep.lanes_flagged, 2u) << "shard " << sweep.shard;
    EXPECT_TRUE(sweep.network_rotated) << "shard " << sweep.shard;
  }
  EXPECT_EQ(cluster.snapshot().network_rotations, 3u);

  const auto ticks = events_of(*recorder, TraceEventKind::kClusterTick);
  ASSERT_EQ(ticks.size(), 2u);
  EXPECT_EQ(ticks[0].a, 1u);
  EXPECT_EQ(ticks[0].detail, "");
  EXPECT_EQ(ticks[1].a, 2u);
  EXPECT_EQ(ticks[1].detail, "swept 3 shards");
}

// --- ShardRouter health cache ------------------------------------------------

TEST(ShardRouterCacheTest, RoutingDoesNotResampleShardsWhoseEpochIsUnchanged) {
  // The satellite regression contract: per-submission routing cost is O(K)
  // atomic reads — the mutexed health walk happens ONLY when a shard's
  // health epoch moved (first contact, quarantine respawn, drain).
  ManualClock clock;
  auto recorder = std::make_shared<TraceRecorder>(TraceConfig{}, clock.fn());
  cluster::FleetCluster cluster(traced_cluster(clock, recorder, /*shards=*/2));
  EXPECT_EQ(cluster.snapshot().health_resamples, 0u);

  // First routed submission: sentinel epochs force one full sample (K = 2).
  (void)cluster.submit(clean_job()).get();
  EXPECT_EQ(cluster.snapshot().health_resamples, 2u);

  // Clean traffic changes only queue depths (served lock-free from the
  // hint): five more routed submissions re-sample NOTHING.
  for (int i = 0; i < 5; ++i) (void)cluster.submit(clean_job()).get();
  EXPECT_EQ(cluster.snapshot().health_resamples, 2u);

  // A quarantine respawn on shard 0 moves ITS epoch (the keyspace gauge
  // refresh); the next routed submission re-samples exactly that one shard.
  (void)cluster.submit_to(0, poison_job("cache invalidation probe")).get();
  (void)cluster.submit(clean_job()).get();
  EXPECT_EQ(cluster.snapshot().health_resamples, 3u);

  // And the router left its decisions in the trace.
  EXPECT_FALSE(events_of(*recorder, TraceEventKind::kRouteDecision).empty());
}

// --- Exporters ---------------------------------------------------------------

TEST(ObsExportersTest, ChromeTraceEmitsMetadataSlicesAndCausalityFlows) {
  ManualClock clock;
  TraceRecorder recorder({}, clock.fn());
  const auto track = recorder.track("lane0");
  recorder.record(track, TraceEventKind::kSessionDraw, /*span=*/3, 0, 7, 0, "uid-xor{mask=0x1}");
  clock.advance(milliseconds(2));
  recorder.record(track, TraceEventKind::kJobStarted, /*span=*/9, /*parent=*/3, 1, 7);

  const std::string json = to_chrome_trace(recorder);
  EXPECT_NE(json.find("\"otherData\":{\"recorded\":2,\"dropped\":0}"), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"lane0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"session_draw\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"uid-xor{mask=0x1}\""), std::string::npos);
  // The second slice lands 2ms later and points back at span 3.
  EXPECT_NE(json.find("\"ts\":2000"), std::string::npos);
  EXPECT_NE(json.find("\"span\":9,\"parent\":3"), std::string::npos);
  // Flow binding: span 3's definition starts a flow ("s"); its dependant
  // steps it ("t").
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
}

TEST(ObsExportersTest, FleetMetricsExposeEverySnapshotFieldAndHistograms) {
  fleet::FleetSnapshot snap;
  snap.jobs_submitted = 11;
  snap.trace_drops = 4;
  TraceRecorder recorder;
  recorder.observe(recorder.histogram("lead_us.input"), 30.0);

  const std::string text = expose_metrics(snap, &recorder);
  EXPECT_NE(text.find("# TYPE nv_fleet_jobs_submitted counter"), std::string::npos);
  EXPECT_NE(text.find("nv_fleet_jobs_submitted 11"), std::string::npos);
  EXPECT_NE(text.find("nv_fleet_trace_drops 4"), std::string::npos);
  EXPECT_NE(text.find("nv_fleet_latency_p95_us"), std::string::npos);
  EXPECT_NE(text.find("# TYPE nv_trace_lead_us_input histogram"), std::string::npos);
  EXPECT_NE(text.find("nv_trace_lead_us_input_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("nv_trace_lead_us_input_count 1"), std::string::npos);
  // Without a recorder the histogram section simply disappears.
  EXPECT_EQ(expose_metrics(snap).find("nv_trace_"), std::string::npos);
}

TEST(ObsExportersTest, ClusterMetricsExposeAggregatesAndPerShardSeries) {
  cluster::ClusterSnapshot snap;
  snap.shards = 2;
  snap.jobs_routed = 6;
  snap.health_resamples = 3;
  cluster::ShardSnapshot view;
  view.shard = 1;
  view.fleet.jobs_completed = 5;
  snap.shard_views.push_back(view);

  const std::string text = expose_metrics(snap);
  EXPECT_NE(text.find("nv_cluster_shards 2"), std::string::npos);
  EXPECT_NE(text.find("nv_cluster_jobs_routed 6"), std::string::npos);
  EXPECT_NE(text.find("nv_cluster_health_resamples 3"), std::string::npos);
  EXPECT_NE(text.find("nv_fleet_jobs_completed{shard=\"1\"} 5"), std::string::npos);
  // One # TYPE header per metric name, even with per-shard label series.
  EXPECT_EQ(text.find("# TYPE nv_fleet_jobs_completed counter"),
            text.rfind("# TYPE nv_fleet_jobs_completed counter"));
}

}  // namespace
}  // namespace nv::obs
