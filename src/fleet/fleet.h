// VariantFleet: many independent N-variant sessions served concurrently by a
// fixed worker pool, kept alive through attacks — and operated like a
// service.
//
// Production posture the single-system runtime lacked:
//   - admission: one bounded FIFO queue; submit() blocks for backpressure,
//     try_submit() refuses instead (and the refusal is counted);
//   - dispatch: each worker lane owns one session stamped out by the
//     SessionFactory, and any idle lane pops the oldest queued job and runs
//     it to completion — so a lane stuck respawning a quarantined session
//     stalls nothing but its own next pop. A caller whose model names a
//     session sends the job to that lane with submit_to();
//   - recovery: a job that ends in a divergence alarm (or throws) poisons
//     its session — the worker QUARANTINES it (retaining the Alarm, run
//     report, and diversity fingerprint for forensics) and respawns a
//     freshly re-diversified replacement from the factory, while every other
//     lane keeps serving;
//   - correlation: every quarantine feeds the CampaignCorrelator; K
//     quarantines sharing one attack signature inside a sliding window raise
//     ONE fleet-level CampaignAlert (not K incident records), optionally
//     escalating by rotating every surviving session to a fresh
//     reexpression;
//   - graceful drain: shutdown(deadline) stops admission, finishes in-flight
//     jobs, and returns the queued jobs it had to abandon;
//   - telemetry: FleetTelemetry aggregates per-lane counters and latency
//     samples into fleet-wide percentiles.
//
// A job receives a session's sealed NVariantSystem and drives it however it
// likes (run a guest to completion, serve a server to one client, or
// launch/drive/stop a server) and returns the RunReport the fleet inspects
// for the attack verdict.
#ifndef NV_FLEET_FLEET_H
#define NV_FLEET_FLEET_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/nvariant_system.h"
#include "fleet/adaptive.h"
#include "fleet/ops.h"
#include "fleet/session_factory.h"
#include "fleet/telemetry.h"
#include "obs/trace.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nv::fleet {

/// One unit of guest work: drive `system` to completion and report. Runs on
/// a worker thread; the system is exclusively owned for the duration.
using FleetJob = std::function<core::RunReport(core::NVariantSystem& system)>;

/// What the submitter's future resolves to.
struct JobOutcome {
  std::uint64_t job_id = 0;
  std::uint64_t session_id = 0;
  core::RunReport report;
  /// This job's alarm (or exception) sent its session to quarantine.
  bool session_quarantined = false;
  /// Non-empty when the job callable threw instead of reporting — or when a
  /// drain deadline abandoned the job before any session ran it (see
  /// kAbandonedError).
  std::string error;
  std::chrono::microseconds latency{0};
  /// Causality id of this job's trace events (0 = untraced): admission,
  /// start, finish, and — when the job poisoned its session — the quarantine
  /// all carry it, so a submitter can find its job in an exported trace.
  std::uint64_t trace_span = 0;

  [[nodiscard]] bool ok() const noexcept {
    return error.empty() && !report.attack_detected;
  }
};

/// Forensic record of one quarantined session.
struct QuarantineRecord {
  std::uint64_t session_id = 0;
  std::uint64_t replacement_id = 0;
  std::string fingerprint;              // diversity identity the attacker faced
  std::string replacement_fingerprint;  // what replaced it (re-diversified)
  core::Alarm alarm;                    // first alarm (or kGuestError for throws)
  core::RunReport report;               // the poisoned run's full report
  std::uint64_t jobs_served = 0;        // CLEAN jobs served before the fatal one
};

/// What submit() does when the fleet already holds queue_capacity jobs.
/// try_submit() is unaffected: it is the caller-side refusal path and always
/// returns nullopt at capacity (counted jobs_rejected).
enum class AdmissionPolicy {
  /// Classic closed-loop backpressure: submit() blocks until a worker frees
  /// a slot. The time spent blocked accumulates (injected clock) into the
  /// admission_blocked_us counter. Open workloads deadlock the submitting
  /// thread here — that is the point of the other two policies.
  kBlock,
  /// 503-style load shedding: submit() returns an already-resolved future
  /// whose outcome carries kShedError, counted as jobs_shed. The submitter
  /// gets an immediate, explicit refusal instead of unbounded queueing delay.
  kShed,
  /// kShed at the door, plus a freshness contract inside: an admitted job
  /// still queued after queue_deadline (injected clock) is dropped at pop
  /// time — its future resolves with kDeadlineDropError, counted as
  /// jobs_deadline_dropped. Models clients that time out and hang up: work
  /// past its deadline only burns a diversified session for a reply nobody
  /// is waiting for.
  kDeadlineDrop,
};

struct FleetConfig {
  SessionSpec spec;
  /// Concurrent sessions == worker lanes. 0 = hardware_concurrency, clamped
  /// to [2, 8] so a 1-core CI box still exercises concurrency.
  unsigned pool_size = 0;
  /// Bounded admission budget: the most jobs the queue holds; what happens
  /// when it is reached is the admission policy's call (block / shed /
  /// deadline-drop).
  std::size_t queue_capacity = 64;
  /// Full-queue behavior for submit(); see AdmissionPolicy. The default keeps
  /// the original blocking-backpressure semantics.
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// kDeadlineDrop only: maximum time a job may sit queued (injected clock)
  /// before the popping worker drops it unserved. 0 disables the in-queue
  /// deadline (kDeadlineDrop then degenerates to kShed).
  std::chrono::milliseconds queue_deadline{0};
  /// Seed for the per-session diversity draws. Unset (the default) draws a
  /// fresh seed from std::random_device — a fixed default would make every
  /// deployment's "random" reexpressions predictable to anyone running the
  /// same binary. Set it explicitly only for reproducible tests/benches.
  std::optional<std::uint64_t> seed;
  /// Campaign correlation policy: K, the sliding window, and whether an
  /// alert rotates the surviving sessions to fresh reexpressions. With
  /// adaptation enabled this is the BASELINE the live policy tightens away
  /// from and decays back to.
  CampaignPolicy campaign;
  /// Campaign-driven adaptive defense (see fleet/adaptive.h): every alert
  /// tightens the live policy fleet-wide, quiet periods decay it back.
  /// Disabled by default — the static-policy posture of earlier revisions.
  AdaptivePolicyConfig adaptive;
  /// Escalation hook: invoked on the quarantining worker's thread each time
  /// a NEW campaign alert is raised (joins do not re-fire). Keep it cheap.
  std::function<void(const CampaignAlert&)> on_campaign;
  /// --- Keyspace posture (see SessionFactory::keyspace()) -----------------
  /// Rotation becomes reluctant once keys_remaining drops to this watermark:
  /// fleet-wide rotations are throttled to one per `rotation_backoff`, and
  /// `on_keyspace_low` fires (exactly once per fleet lifetime) the first time
  /// the factory's account is observed at or below it. 0 = auto: the pool
  /// size, i.e. "one more fleet-wide rotation would drain the space".
  std::uint64_t keyspace_low_watermark = 0;
  /// Minimum spacing between fleet-wide rotations while the keyspace is low
  /// (measured on the injected clock). Exhaustion stops rotation flagging
  /// entirely — quarantine respawns, which MUST replace a burned session,
  /// are never throttled and surface their failures as retired lanes.
  std::chrono::milliseconds rotation_backoff{1'000};
  /// Operator hook for the low/exhausted keyspace transition: provision a new
  /// fleet, widen the spec, or accept reduced re-diversification. Invoked at
  /// most once, on whichever thread first observes the account at or below
  /// the watermark. Keep it cheap.
  std::function<void(const KeyspaceAccount&)> on_keyspace_low;
  /// Rotation deadline: a lane flagged for rotation normally swaps lazily
  /// before its next job, so a long-running job pins its stale (possibly
  /// campaign-burned) re-expression until it finishes. With a deadline set,
  /// poll_adaptive() force-rotates any lane still flagged after this long:
  /// the replacement session is installed immediately and the displaced
  /// session is parked (quarantine-style) until its in-flight job completes
  /// against it. 0 = lazy rotation only (previous behavior).
  std::chrono::milliseconds rotation_deadline{0};
  /// Injectable time source for correlator windows and drain deadlines;
  /// empty = real steady clock. Tests install ManualClock::fn().
  ClockFn clock;
  /// Structured tracing (obs/trace.h): the fleet records admission,
  /// quarantine, respawn, rotation, keyspace, and adaptive events into this
  /// recorder (tracks "<trace_scope>.ops" and "<trace_scope>.lane<i>"), and
  /// propagates it into the SessionFactory and every built NVariantSystem.
  /// Null = untraced (the default; the record path is never entered).
  std::shared_ptr<obs::TraceRecorder> trace;
  /// Track-name prefix for this fleet's events; a cluster sets "shard<i>" so
  /// K shards share one recorder without colliding.
  std::string trace_scope = "fleet";
  /// Forensic escalation: when a campaign alert fires, re-arm the live trace
  /// recorder's syscall-round sampling stride to this value (via
  /// TraceRecorder::set_syscall_round_sample) so the rounds surrounding an
  /// active attack are captured at full (or configured) resolution instead
  /// of the steady-state stride. 0 = leave the recorder's stride alone.
  std::uint32_t trace_campaign_round_sample = 0;
  /// TEST SEAM: runs on the worker thread immediately after its lane enters
  /// the respawning state (before the replacement session is built), so a
  /// test can hold a lane mid-respawn and prove the queue drains via peers.
  std::function<void(unsigned lane)> respawn_hook;
};

class VariantFleet {
 public:
  /// JobOutcome::error of a job a drain deadline dropped before execution.
  static constexpr const char* kAbandonedError = "abandoned at fleet shutdown deadline";
  /// JobOutcome::error of a job refused at the door (AdmissionPolicy::kShed /
  /// kDeadlineDrop at capacity) — the fleet's 503.
  static constexpr const char* kShedError = "shed at admission: fleet at capacity";
  /// JobOutcome::error of an admitted job that outlived queue_deadline in the
  /// queue and was dropped unserved (AdmissionPolicy::kDeadlineDrop).
  static constexpr const char* kDeadlineDropError = "dropped: queue deadline exceeded";
  /// JobOutcome::error of a job no live lane can run (see submit_to()).
  static constexpr const char* kDeadLaneError =
      "worker lane lost its session (respawn failed earlier)";

  /// Spawns the worker pool and stamps out the initial sessions; throws
  /// std::invalid_argument when the spec cannot produce a valid session.
  explicit VariantFleet(FleetConfig config);
  /// Drains the queue fully and joins the pool (shutdown()).
  ~VariantFleet();

  VariantFleet(const VariantFleet&) = delete;
  VariantFleet& operator=(const VariantFleet&) = delete;

  /// Enqueue a job. At capacity the admission policy decides: kBlock waits
  /// for a slot (backpressure, time counted in admission_blocked_us), kShed /
  /// kDeadlineDrop return an immediately-resolved kShedError outcome
  /// (counted jobs_shed). Throws std::runtime_error after shutdown.
  [[nodiscard]] std::future<JobOutcome> submit(FleetJob job);

  /// submit() for a job only `lane`'s session may run: for callers whose
  /// model names the session (an attacker choosing its target, a test
  /// pinning a job). Same admission policy as submit(); a job for a retired
  /// lane resolves at once with kDeadLaneError. Throws std::out_of_range
  /// when lane >= pool_size().
  [[nodiscard]] std::future<JobOutcome> submit_to(unsigned lane, FleetJob job);

  /// Non-blocking admission: nullopt when the fleet is at capacity or
  /// shutting down (including mid-drain). Every refusal is counted exactly
  /// once as telemetry jobs_rejected.
  [[nodiscard]] std::optional<std::future<JobOutcome>> try_submit(FleetJob job);

  /// Stop admitting, run everything already queued, join the pool.
  /// Idempotent; called by the destructor. Must not race other shutdown
  /// calls.
  void shutdown();

  /// Deadline-bounded graceful drain: stop admitting, let the lanes work the
  /// queue down until `deadline` elapses (measured on the injected clock),
  /// then abandon whatever is still queued — each abandoned submitter's
  /// future resolves with kAbandonedError — and join the pool once in-flight
  /// jobs finish (in-flight work is never abandoned). The abandoned count is
  /// mirrored in telemetry jobs_abandoned.
  [[nodiscard]] DrainReport shutdown(std::chrono::milliseconds deadline);

  /// Operator-initiated fleet-wide re-diversification: flag every live lane
  /// to swap in a freshly-drawn session before its next job (the same
  /// mechanism campaign escalation uses, minus the alert). Returns how many
  /// lanes were flagged; each flag resolves asynchronously into exactly one
  /// telemetry sessions_rotated or rotations_failed increment. This is the
  /// defender's re-diversification-rate lever the population experiments
  /// sweep (experiments/population_curves.h).
  ///
  /// Exhaustion-aware: once the factory's keyspace account reads 0 keys
  /// remaining this flags NOTHING and returns 0 — re-flagging an empty
  /// factory only churns rotations_failed without buying diversity. While
  /// the account is merely LOW (<= keyspace_low_watermark) rotations are
  /// throttled to one per rotation_backoff.
  std::size_t rotate_fleet();

  /// Fleet housekeeping: enforce the rotation deadline (force-rotating lanes
  /// whose flag outlived FleetConfig::rotation_deadline), take a due adaptive
  /// decay step, and fire the heightened-posture periodic rotation when one
  /// is owed — unless the keyspace is exhausted, in which case the periodic
  /// rotation is suppressed (it could only fail). Returns how many lanes it
  /// flagged or force-rotated (usually 0). Workers poll after every job, so
  /// a serving fleet adapts on its own; an IDLE fleet needs this called (or
  /// a job submitted) once the injected clock moves past the quiet period /
  /// rotation interval / rotation deadline.
  std::size_t poll_adaptive();

  /// Live keyspace ledger (factory account; also mirrored into telemetry
  /// keys_total / keys_remaining gauges after every draw).
  [[nodiscard]] KeyspaceAccount keyspace() const { return factory_.keyspace(); }

  /// Tell the fleet the injected clock moved: wakes a deadline-bounded drain
  /// blocked on it AND enforces the rotation deadline (a truly idle fleet —
  /// no jobs, no operator poll — would otherwise never force-rotate a pinned
  /// lane past FleetConfig::rotation_deadline). Subscribe it to the clock —
  /// clock.subscribe([&fleet] { fleet.notify_time_advanced(); }) — or call it
  /// directly after advance(). Harmless no-op otherwise. Returns how many
  /// lanes the deadline enforcement force-rotated (usually 0) so a periodic
  /// caller (FleetCluster::tick) can report sweep work without re-polling.
  std::size_t notify_time_advanced();

  /// True while the fleet admits jobs (drain/shutdown flip it off). The
  /// cluster router's health bit; also useful for operator dashboards.
  [[nodiscard]] bool accepting() const;

  /// Cross-shard gossip entry point: apply a campaign alert RAISED ON
  /// ANOTHER FLEET to this fleet's adaptive posture. Tightens the live
  /// policy exactly as a local alert would (counted as telemetry
  /// remote_campaigns + policy_tightened) but does NOT rotate, does not feed
  /// the local correlator's signature window, and never re-publishes — the
  /// GossipBus only carries locally-raised alerts, so gossip cannot loop.
  /// The pre-warned shard meets the attacker already tightened.
  void apply_remote_campaign(const CampaignAlert& alert);

  /// The LIVE campaign policy (== FleetConfig::campaign until the adaptive
  /// controller moves it).
  [[nodiscard]] CampaignPolicy campaign_policy() const;
  /// Adaptive controller state, or nullptr when FleetConfig::adaptive is
  /// disabled. Safe for concurrent reads (the controller locks internally).
  [[nodiscard]] const AdaptivePolicyController* adaptive() const noexcept {
    return adaptive_.has_value() ? &*adaptive_ : nullptr;
  }

  [[nodiscard]] FleetTelemetry& telemetry() noexcept { return telemetry_; }
  [[nodiscard]] const FleetTelemetry& telemetry() const noexcept { return telemetry_; }
  [[nodiscard]] std::vector<QuarantineRecord> quarantine_log() const;
  /// Fleet-level campaign alerts raised so far (members folded in).
  [[nodiscard]] std::vector<CampaignAlert> campaign_alerts() const;
  /// Campaigns whose sliding window is still live right now.
  [[nodiscard]] std::vector<CampaignAlert> open_campaigns() const;
  [[nodiscard]] unsigned pool_size() const noexcept { return pool_size_; }
  /// Jobs queued and not yet popped (excludes in-flight jobs).
  [[nodiscard]] std::size_t queue_depth() const;
  /// One consistent observation of worker-side progress, for drivers that
  /// single-step the fleet on an injected clock (src/load). The fleet is
  /// externally at rest when every worker is accounted for (idle_workers
  /// plus the driver's own count of in-flight job bodies equals pool_size),
  /// no idle worker may pop a queued job, and no lane is mid-swap — all
  /// remaining progress then needs the clock to move.
  struct IdleSnapshot {
    std::size_t idle_workers = 0;   ///< workers blocked on the queue condvar
    bool idle_backlog = false;      ///< an idle worker may pop a queued job
    std::size_t lanes_in_flux = 0;  ///< respawn / forced rotation in progress
  };
  [[nodiscard]] IdleSnapshot idle_snapshot() const;
  /// Diversity fingerprints of the sessions currently installed in each lane.
  [[nodiscard]] std::vector<std::string> live_fingerprints() const;

  /// Monotone counter bumped whenever the fleet's SLOW health inputs change:
  /// accepting flips, keyspace gauge refreshes (draws, rotations), lane
  /// retirement. A router that cached this fleet's health view may keep
  /// serving it until the epoch moves — queue depth is the one fast-moving
  /// field, and queue_depth_hint() reads it without the queue mutex.
  [[nodiscard]] std::uint64_t health_epoch() const noexcept {
    return health_epoch_.load(std::memory_order_acquire);
  }
  /// Lock-free approximation of queue_depth() for routing decisions: reads
  /// the same counter, but relaxed and without queue_mutex_ — may be one
  /// enqueue/dequeue stale, which load balancing tolerates by construction.
  [[nodiscard]] std::size_t queue_depth_hint() const noexcept {
    return total_queued_.load(std::memory_order_relaxed);
  }
  /// Lock-free cumulative shed count for routing decisions: a shard that is
  /// actively shedding is overloaded in a way queue depth alone understates
  /// (its queue is pinned at capacity; the overflow is invisible there).
  [[nodiscard]] std::uint64_t jobs_shed_hint() const noexcept {
    return telemetry_.jobs_shed_count();
  }

 private:
  struct PendingJob {
    std::uint64_t id = 0;
    FleetJob fn;
    std::promise<JobOutcome> promise;
    std::uint64_t trace_span = 0;  // allocated at admission (kJobAdmitted)
    /// The lane submit_to() named; empty = any lane may run the job.
    std::optional<unsigned> lane;
    /// Admission time on the injected clock; only stamped when a queue
    /// deadline is armed (kDeadlineDrop with queue_deadline > 0).
    std::chrono::steady_clock::time_point admitted_at{};
  };
  /// Lane state; every field is accessed under queue_mutex_ (the flags vector
  /// itself is NV_GUARDED_BY below).
  struct LaneFlags {
    bool dead = false;        // respawn failed; lane retired
    bool exited = false;      // worker thread returned; pops nothing more
    bool respawning = false;  // lane is mid-respawn; rotation skips it
    bool waiting = false;     // worker is blocked on the queue condvar
    bool rotate = false;      // campaign escalation: re-diversify before next job
    /// Deadline enforcement is force-rotating this lane right now; its own
    /// worker must not race it with a lazy rotation.
    bool force_rotating = false;
    /// When `rotate` was set (injected clock), for the rotation deadline.
    std::chrono::steady_clock::time_point rotate_since{};
    /// Trace span that CAUSED the pending rotation (the campaign alert's
    /// span, or 0 for operator rotate_fleet): the eventual kRotation event
    /// parents here, closing the alert -> rotation causal chain.
    std::uint64_t rotate_parent_span = 0;
  };

  void worker_loop(unsigned lane);
  void run_job(unsigned lane, PendingJob job);
  /// Replace lane's session after quarantine; on persistent factory failure
  /// the lane keeps the poisoned session out of service and retires.
  void respawn(unsigned lane, JobOutcome& outcome);
  /// Campaign escalation: flag every other live lane for re-diversification.
  /// `parent_span` threads the causing alert's trace span into the flags.
  void request_rotation_except(unsigned lane, std::uint64_t parent_span = 0);
  /// Swap a freshly-drawn session into an idle lane (rotation escalation).
  void rotate_lane(unsigned lane, std::uint64_t parent_span);
  /// Mirror the factory account into the telemetry gauges and fire
  /// on_keyspace_low on the first observation at/below the watermark.
  KeyspaceAccount refresh_keyspace_gauge();
  /// Resolved low watermark (config value, or the pool size when 0).
  [[nodiscard]] std::uint64_t low_watermark() const noexcept;
  /// Force-rotate lanes whose rotate flag outlived the rotation deadline:
  /// install the replacement NOW and park the displaced session until the
  /// lane's in-flight job finishes with it. Returns lanes swapped.
  std::size_t enforce_rotation_deadlines();
  /// Fail the queued jobs sent to a retiring lane (every queued job when no
  /// live lane remains); jobs any lane may run stay for the survivors.
  void retire_lane_locked(unsigned lane) NV_REQUIRES(queue_mutex_);
  /// Some live lane (not retired, worker not exited) may run a job sent to
  /// `lane` (empty = any lane).
  [[nodiscard]] bool runnable_locked(std::optional<unsigned> lane) const NV_REQUIRES(queue_mutex_);
  /// The admission body submit() and submit_to() share.
  [[nodiscard]] std::future<JobOutcome> admit(std::optional<unsigned> lane, FleetJob job);
  [[nodiscard]] std::future<JobOutcome> enqueue_locked(std::optional<unsigned> lane, FleetJob job)
      NV_REQUIRES(queue_mutex_);
  /// 503 path: mint an already-resolved kShedError future (counted + traced).
  [[nodiscard]] std::future<JobOutcome> shed_locked() NV_REQUIRES(queue_mutex_);
  /// kDeadlineDrop: resolve an expired queued job as kDeadlineDropError.
  /// `waited` is how long it sat in the queue (injected clock).
  void drop_expired_job(unsigned lane, PendingJob job, std::chrono::microseconds waited);
  DrainReport drain(std::optional<std::chrono::milliseconds> deadline);

  [[nodiscard]] static unsigned resolve_pool_size(unsigned requested);

  FleetConfig config_;
  unsigned pool_size_;
  ClockFn clock_;
  SessionFactory factory_;
  FleetTelemetry telemetry_;
  CampaignCorrelator correlator_;
  std::optional<AdaptivePolicyController> adaptive_;
  /// Serializes {controller decision -> correlator set_policy()} so two
  /// workers cannot install steps out of order (a stale tighter policy would
  /// otherwise stick while the controller believes it is at baseline).
  /// Ordering-only: it guards no fields of its own (nvlint NV-MUTEX-GUARD
  /// allowlisted), the guarded state lives inside controller + correlator.
  util::Mutex adaptive_install_mutex_;

  mutable util::Mutex queue_mutex_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  std::condition_variable drain_progress_;
  std::deque<PendingJob> queue_ NV_GUARDED_BY(queue_mutex_);  // oldest first
  std::vector<LaneFlags> lane_flags_ NV_GUARDED_BY(queue_mutex_);
  /// Written only under queue_mutex_; atomic so queue_depth_hint() can read
  /// it lock-free from the router hot path.
  std::atomic<std::size_t> total_queued_{0};
  bool accepting_ NV_GUARDED_BY(queue_mutex_) = true;
  std::uint64_t next_job_id_ NV_GUARDED_BY(queue_mutex_) = 0;
  /// See health_epoch(): bumped on accepting flips, keyspace refreshes, and
  /// lane retirement.
  std::atomic<std::uint64_t> health_epoch_{0};

  /// Tracing (null = untraced). ops_track_ carries fleet-scope events
  /// (admission, alerts, keyspace); lane_tracks_[i] carries lane i's
  /// lifecycle (start/finish, quarantine, respawn, rotation).
  std::shared_ptr<obs::TraceRecorder> trace_;
  std::uint32_t ops_track_ = 0;
  std::vector<std::uint32_t> lane_tracks_;

  /// One fleet-wide rotation per rotation_backoff while the keyspace is low.
  std::chrono::steady_clock::time_point last_backoff_rotation_ NV_GUARDED_BY(queue_mutex_){};
  /// on_keyspace_low fires at most once per fleet lifetime (the account only
  /// ever drains).
  std::atomic<bool> keyspace_low_fired_{false};
  /// Cached KeyspaceAccount::exhausted(), refreshed by
  /// refresh_keyspace_gauge(): poll_adaptive runs after EVERY job, and the
  /// hot path must not take the factory mutex just to read one bit.
  std::atomic<bool> keyspace_exhausted_{false};

  mutable util::Mutex sessions_mutex_;
  std::vector<Session> sessions_ NV_GUARDED_BY(sessions_mutex_);  // one per lane
  /// Sessions a rotation deadline displaced while a job was still driving
  /// them (per lane): the job holds a raw pointer into the old system, so it
  /// must stay alive until the lane's worker finishes the job and reaps them.
  std::vector<std::vector<Session>> displaced_sessions_ NV_GUARDED_BY(sessions_mutex_);

  mutable util::Mutex quarantine_mutex_;
  std::vector<QuarantineRecord> quarantine_log_ NV_GUARDED_BY(quarantine_mutex_);

  std::vector<std::jthread> workers_;
};

}  // namespace nv::fleet

#endif  // NV_FLEET_FLEET_H
