#include "fleet/fleet.h"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <utility>

#include "util/mutex.h"
#include "util/strings.h"
#include "variants/registry.h"

namespace nv::fleet {

namespace {

std::uint64_t resolve_seed(std::optional<std::uint64_t> requested) {
  if (requested.has_value()) return *requested;
  std::random_device entropy;
  return (static_cast<std::uint64_t>(entropy()) << 32) | entropy();
}

/// The factory inherits the fleet's recorder and scope so session draws and
/// sampled rendezvous rounds land on "<scope>.factory"/"<scope>.core".
SessionSpec traced_spec(const FleetConfig& config) {
  SessionSpec spec = config.spec;
  spec.trace = config.trace;
  spec.trace_scope = config.trace_scope;
  return spec;
}

/// Low water: one more fleet-wide rotation would drain the keyspace (the
/// watermark is the pool size).
bool keyspace_low(const KeyspaceAccount& account, unsigned pool_size) {
  return account.tracked && account.keys_remaining <= pool_size;
}

/// While the keyspace is low, fleet-wide rotations are spaced at least this
/// far apart on the injected clock.
constexpr std::chrono::milliseconds kRotationBackoff{1'000};

}  // namespace

unsigned VariantFleet::resolve_pool_size(unsigned requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw, 2U, 8U);
}

VariantFleet::VariantFleet(FleetConfig config)
    : config_(std::move(config)),
      pool_size_(resolve_pool_size(config_.pool_size)),
      clock_(resolve_clock(config_.clock)),
      factory_(traced_spec(config_), resolve_seed(config_.seed), variants::builtin_registry()),
      telemetry_(pool_size_),
      correlator_(config_.campaign, clock_) {
  if (config_.adaptive.enabled) {
    adaptive_.emplace(config_.adaptive, config_.campaign, clock_);
  }
  if (config_.queue_capacity == 0) {
    throw std::invalid_argument("fleet queue capacity must be positive");
  }
  trace_ = config_.trace;
  if (trace_) {
    telemetry_.attach_trace(trace_);
    ops_track_ = trace_->track(config_.trace_scope + ".ops");
    lane_tracks_.reserve(pool_size_);
    for (unsigned lane = 0; lane < pool_size_; ++lane) {
      lane_tracks_.push_back(
          trace_->track(config_.trace_scope + util::format(".lane%u", lane)));
    }
  } else {
    lane_tracks_.assign(pool_size_, 0);
  }
  sessions_.reserve(pool_size_);
  for (unsigned lane = 0; lane < pool_size_; ++lane) {
    auto session = factory_.make_session();
    if (!session) {
      throw std::invalid_argument("fleet spec cannot produce a session: " + session.error());
    }
    sessions_.push_back(std::move(*session));
  }
  // Arm the backoff so the FIRST low-keyspace rotation is admitted; only the
  // spacing between subsequent ones is enforced.
  last_backoff_rotation_ = clock_() - kRotationBackoff;
  (void)refresh_keyspace_gauge();
  lane_flags_.resize(pool_size_);
  workers_.reserve(pool_size_);
  try {
    for (unsigned lane = 0; lane < pool_size_; ++lane) {
      workers_.emplace_back([this, lane] { worker_loop(lane); });
    }
  } catch (...) {
    // Thread spawning failed partway: the already-spawned workers are parked
    // in queue_not_empty_.wait and would never see the jthread stop request,
    // deadlocking the unwind's join. Tell them to exit first.
    {
      const util::MutexLock lock(queue_mutex_);
      accepting_ = false;
    }
    queue_not_empty_.notify_all();
    throw;
  }
}

VariantFleet::~VariantFleet() { shutdown(); }

bool VariantFleet::runnable_locked(std::optional<unsigned> lane) const {
  for (unsigned l = 0; l < pool_size_; ++l) {
    if ((!lane || *lane == l) && !lane_flags_[l].dead && !lane_flags_[l].exited) return true;
  }
  return false;
}

std::future<JobOutcome> VariantFleet::enqueue_locked(std::optional<unsigned> lane, FleetJob job) {
  PendingJob pending;
  pending.id = next_job_id_++;
  pending.fn = std::move(job);
  pending.lane = lane;
  auto future = pending.promise.get_future();
  if (!runnable_locked(lane)) {
    // No live lane will ever pop this; fail fast instead of queueing forever.
    JobOutcome outcome;
    outcome.job_id = pending.id;
    outcome.error = kDeadLaneError;
    telemetry_.note_submitted();
    telemetry_.note_job_error();
    if (trace_) {
      trace_->record(ops_track_, obs::TraceEventKind::kJobRejected, 0, 0, outcome.job_id, 0,
                     kDeadLaneError);
    }
    pending.promise.set_value(std::move(outcome));
    return future;
  }
  const std::size_t depth = total_queued_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (trace_) {
    // Admission DEFINES the job's span; start/finish/quarantine parent to it.
    pending.trace_span = trace_->new_span();
    trace_->record(ops_track_, obs::TraceEventKind::kJobAdmitted, pending.trace_span, 0,
                   pending.id, depth);
  }
  if (config_.admission == AdmissionPolicy::kDeadlineDrop &&
      config_.queue_deadline > std::chrono::milliseconds::zero()) {
    pending.admitted_at = clock_();
  }
  queue_.push_back(std::move(pending));
  telemetry_.note_queue_depth(depth);
  telemetry_.note_submitted();
  return future;
}

std::future<JobOutcome> VariantFleet::shed_locked() {
  JobOutcome outcome;
  outcome.job_id = next_job_id_++;
  outcome.error = kShedError;
  telemetry_.note_shed();
  if (trace_) {
    trace_->record(ops_track_, obs::TraceEventKind::kJobShed, 0, 0, outcome.job_id,
                   total_queued_.load(std::memory_order_relaxed));
  }
  std::promise<JobOutcome> promise;
  auto future = promise.get_future();
  promise.set_value(std::move(outcome));
  return future;
}

std::future<JobOutcome> VariantFleet::submit(FleetJob job) {
  return admit(std::nullopt, std::move(job));
}

std::future<JobOutcome> VariantFleet::submit_to(unsigned lane, FleetJob job) {
  if (lane >= pool_size_) {
    throw std::out_of_range(util::format("fleet has no lane %u (pool size %u)", lane, pool_size_));
  }
  return admit(lane, std::move(job));
}

std::future<JobOutcome> VariantFleet::admit(std::optional<unsigned> lane, FleetJob job) {
  std::future<JobOutcome> future;
  {
    util::MutexLock lock(queue_mutex_);
    const auto full = [this] {
      return total_queued_.load(std::memory_order_relaxed) >= config_.queue_capacity;
    };
    if (config_.admission == AdmissionPolicy::kBlock) {
      if (accepting_ && full()) {
        // Clock reads under queue_mutex_ are the established order (drain()
        // does the same); ManualClock::advance never calls back under its lock.
        const auto blocked_from = clock_();
        ++blocked_submitters_;
        while (accepting_ && full()) queue_not_full_.wait(lock.native());
        --blocked_submitters_;
        const auto blocked =
            std::chrono::duration_cast<std::chrono::microseconds>(clock_() - blocked_from);
        if (blocked.count() > 0) {
          telemetry_.add_admission_blocked(static_cast<std::uint64_t>(blocked.count()));
        }
      }
    } else if (accepting_ && full()) {
      return shed_locked();
    }
    if (!accepting_) throw std::runtime_error("fleet is shut down");
    future = enqueue_locked(lane, std::move(job));
  }
  // Any idle worker may run an untargeted job; a targeted one needs its own
  // lane's worker, which notify_one might not wake.
  if (lane) {
    queue_not_empty_.notify_all();
  } else {
    queue_not_empty_.notify_one();
  }
  return future;
}

std::optional<std::future<JobOutcome>> VariantFleet::try_submit(FleetJob job) {
  std::future<JobOutcome> future;
  {
    const util::MutexLock lock(queue_mutex_);
    if (!accepting_ ||
        total_queued_.load(std::memory_order_relaxed) >= config_.queue_capacity) {
      telemetry_.note_rejected();
      if (trace_) {
        trace_->record(ops_track_, obs::TraceEventKind::kJobRejected, 0, 0, 0,
                       total_queued_.load(std::memory_order_relaxed),
                       accepting_ ? "at capacity" : "not accepting");
      }
      return std::nullopt;
    }
    future = enqueue_locked(std::nullopt, std::move(job));
  }
  queue_not_empty_.notify_one();
  return future;
}

void VariantFleet::shutdown() { (void)drain(std::nullopt); }

DrainReport VariantFleet::shutdown(std::chrono::milliseconds deadline) {
  return drain(deadline);
}

DrainReport VariantFleet::drain(std::optional<std::chrono::milliseconds> deadline) {
  DrainReport report;
  {
    util::MutexLock lock(queue_mutex_);
    accepting_ = false;
    queue_not_empty_.notify_all();
    queue_not_full_.notify_all();
    if (deadline.has_value()) {
      // Give the lanes until the deadline (on the injected clock) to work
      // the queue down. Workers notify drain_progress_ on every pop and
      // lane retirement, so this wait is event-driven, not a busy-spin.
      const auto deadline_at = clock_() + *deadline;
      if (!config_.clock) {
        // Real steady clock: a timed wait fires exactly at the deadline.
        while (total_queued_.load(std::memory_order_relaxed) > 0 && clock_() < deadline_at) {
          drain_progress_.wait_until(lock.native(), deadline_at);
        }
      } else {
        // Injected clock: a real-time wait_until means nothing — the clock
        // only moves when its owner advances it. Re-check on worker progress
        // and on notify_time_advanced() (wire it up via
        // ManualClock::subscribe); the coarse slice below is only a safety
        // net for injected clocks nobody subscribed.
        while (total_queued_.load(std::memory_order_relaxed) > 0 && clock_() < deadline_at) {
          drain_progress_.wait_for(lock.native(), std::chrono::milliseconds(50));
        }
      }
      // Past the deadline: abandon everything still queued. In-flight jobs
      // are NOT abandoned — the join below waits for them.
      for (PendingJob& job : queue_) {
        JobOutcome outcome;
        outcome.job_id = job.id;
        outcome.error = kAbandonedError;
        outcome.trace_span = job.trace_span;
        telemetry_.note_abandoned();
        report.abandoned_job_ids.push_back(outcome.job_id);
        if (trace_) {
          trace_->record(ops_track_, obs::TraceEventKind::kJobAbandoned, job.trace_span, 0,
                         job.id);
        }
        job.promise.set_value(std::move(outcome));
      }
      queue_.clear();
      total_queued_.store(0, std::memory_order_relaxed);
      queue_not_empty_.notify_all();
    }
  }
  workers_.clear();  // jthread joins; workers finish in-flight work and (in
                     // the no-deadline path) drain the remaining queue first
  report.jobs_abandoned = report.abandoned_job_ids.size();
  report.clean = report.jobs_abandoned == 0;
  return report;
}

std::size_t VariantFleet::queue_depth() const {
  const util::MutexLock lock(queue_mutex_);
  return total_queued_.load(std::memory_order_relaxed);
}

VariantFleet::IdleSnapshot VariantFleet::idle_snapshot() const {
  const util::MutexLock lock(queue_mutex_);
  IdleSnapshot snapshot;
  snapshot.blocked_submitters = blocked_submitters_;
  for (const LaneFlags& flags : lane_flags_) {
    if (flags.waiting) ++snapshot.idle_workers;
    if (flags.respawning) ++snapshot.lanes_in_flux;
  }
  // An idle worker may pop a queued job: any idle worker an untargeted one,
  // only the named lane's worker a submit_to() job.
  for (const PendingJob& job : queue_) {
    if (job.lane ? lane_flags_[*job.lane].waiting : snapshot.idle_workers > 0) {
      snapshot.idle_backlog = true;
      break;
    }
  }
  return snapshot;
}

std::vector<std::string> VariantFleet::live_fingerprints() const {
  const util::MutexLock lock(sessions_mutex_);
  std::vector<std::string> fingerprints;
  fingerprints.reserve(sessions_.size());
  for (const auto& session : sessions_) fingerprints.push_back(session.fingerprint);
  return fingerprints;
}

std::vector<QuarantineRecord> VariantFleet::quarantine_log() const {
  const util::MutexLock lock(quarantine_mutex_);
  return {quarantine_log_.begin(), quarantine_log_.end()};
}

std::vector<CampaignAlert> VariantFleet::campaign_alerts() const {
  return correlator_.alerts();
}

std::vector<CampaignAlert> VariantFleet::open_campaigns() const {
  return correlator_.open_campaigns();
}

CampaignPolicy VariantFleet::campaign_policy() const { return correlator_.policy(); }

void VariantFleet::notify_time_advanced() { drain_progress_.notify_all(); }

bool VariantFleet::accepting() const {
  const util::MutexLock lock(queue_mutex_);
  return accepting_;
}

void VariantFleet::apply_remote_campaign(const CampaignAlert& alert) {
  telemetry_.note_remote_campaign();
  if (!adaptive_.has_value()) return;
  // Same install discipline as a local alert (respawn): the decision and its
  // installation into the correlator must be one atomic step.
  const util::MutexLock install_lock(adaptive_install_mutex_);
  if (auto next = adaptive_->on_alert(alert)) {
    correlator_.set_policy(*next);
    telemetry_.note_policy_tightened();
    if (trace_) {
      // Parented to the ORIGIN fleet's alert span: the cross-shard pre-warn
      // chain (alert on shard A -> tighten on shard B) is provable in the
      // exported trace, not just counted.
      trace_->record(ops_track_, obs::TraceEventKind::kRemoteTighten, 0, alert.trace_span,
                     alert.id, 0, alert.signature.key());
    }
  }
}

KeyspaceAccount VariantFleet::refresh_keyspace_gauge() {
  const KeyspaceAccount account = factory_.keyspace();
  telemetry_.set_keyspace(account.keys_total, account.keys_remaining);
  const bool was_exhausted =
      keyspace_exhausted_.exchange(account.exhausted(), std::memory_order_relaxed);
  if (trace_ && !was_exhausted && account.exhausted()) {
    trace_->record(ops_track_, obs::TraceEventKind::kKeyspaceExhausted, 0, 0,
                   account.keys_issued, account.keys_total);
  }
  if (keyspace_low(account, pool_size_) &&
      !keyspace_low_fired_.exchange(true, std::memory_order_relaxed) && trace_) {
    trace_->record(ops_track_, obs::TraceEventKind::kKeyspaceLow, 0, 0, account.keys_remaining,
                   account.keys_total);
  }
  return account;
}

std::size_t VariantFleet::rotate_fleet() {
  const KeyspaceAccount account = refresh_keyspace_gauge();
  if (account.exhausted()) {
    // Every draw would fail against a factory that can never satisfy it.
    // Stop ordering rotations; the gauges and the keyspace_exhausted trace
    // event already tell the operator.
    return 0;
  }
  const auto now = clock_();
  const util::MutexLock lock(queue_mutex_);
  const bool low = keyspace_low(account, pool_size_);
  // Low water: still rotate (a burned reexpression in service is worse than
  // a shorter runway), but no faster than one fleet sweep per backoff
  // interval — heightened-posture periodic rotation must not sprint through
  // the last few keys.
  if (low && now - last_backoff_rotation_ < kRotationBackoff) return 0;
  const std::size_t named = draw_rotations_locked(std::nullopt, 0);
  // Charge the backoff slot only for a sweep that named a lane: a call that
  // found every lane respawning (or holding a draw already) must not block
  // the retry that would actually rotate.
  if (low && named > 0) last_backoff_rotation_ = now;
  queue_not_empty_.notify_all();
  return named;
}

std::size_t VariantFleet::poll_adaptive() {
  if (!adaptive_.has_value()) return 0;
  {
    // Decay first: a posture that just relaxed to baseline owes no rotation.
    const util::MutexLock install_lock(adaptive_install_mutex_);
    if (auto next = adaptive_->poll()) {
      correlator_.set_policy(*next);
      telemetry_.note_policy_decayed();
      if (trace_) {
        trace_->record(ops_track_, obs::TraceEventKind::kPolicyDecayed, 0, 0,
                       next->threshold, next->window.count());
      }
    }
  }
  // Exhaustion-aware heightened posture: when no unique key remains, leave
  // the rotation debt unconsumed instead of burning a guaranteed failure —
  // the interval re-fires normally if the operator widens the space. The
  // cached bit keeps this post-every-job path off the factory mutex.
  if (keyspace_exhausted_.load(std::memory_order_relaxed)) return 0;
  if (adaptive_->rotation_due()) return rotate_fleet();
  return 0;
}

void VariantFleet::worker_loop(unsigned lane) {
  for (;;) {
    std::optional<Rotation> rotation;
    bool accepting = false;
    {
      const util::MutexLock lock(queue_mutex_);
      rotation = std::exchange(lane_flags_[lane].rotation, std::nullopt);
      accepting = accepting_;
    }
    // A rotation still waiting at shutdown is moot: the jobs left to drain
    // finish on the lane's current session.
    if (rotation && accepting) rotate_lane(lane, std::move(*rotation));

    PendingJob job;
    {
      util::MutexLock lock(queue_mutex_);
      // The oldest job this lane may run: the front itself unless the queue
      // holds jobs submit_to() sent to other lanes.
      const auto runnable = [lane](const PendingJob& pending) {
        return !pending.lane || *pending.lane == lane;
      };
      auto next = queue_.end();
      // Explicit wait loop (not a wait-with-predicate lambda): the analysis
      // must see the guarded reads happen with queue_mutex_ held.
      for (;;) {
        if (lane_flags_[lane].rotation) break;
        next = std::find_if(queue_.begin(), queue_.end(), runnable);
        if (next != queue_.end() || !accepting_) break;
        // The waiting flag is what idle_snapshot() reports: set strictly
        // inside the lock around the wait, so an observer holding
        // queue_mutex_ sees either "blocked in the condvar" or "will
        // re-examine the queue before sleeping" — never a stale idle.
        lane_flags_[lane].waiting = true;
        queue_not_empty_.wait(lock.native());
        lane_flags_[lane].waiting = false;
      }
      if (lane_flags_[lane].rotation) continue;  // install it at the loop top
      if (next == queue_.end()) {
        // Draining, and nothing left that this lane may run.
        lane_flags_[lane].exited = true;
        return;
      }
      job = std::move(*next);
      queue_.erase(next);
      total_queued_.fetch_sub(1, std::memory_order_relaxed);
      queue_not_full_.notify_one();
      if (!accepting_) drain_progress_.notify_all();
    }
    // In-queue freshness contract: a job that waited past queue_deadline is
    // dropped HERE, at pop time — lazily, so an idle queue costs nothing —
    // and never touches a session. The submitter already stopped waiting.
    if (config_.admission == AdmissionPolicy::kDeadlineDrop &&
        config_.queue_deadline > std::chrono::milliseconds::zero()) {
      const auto waited =
          std::chrono::duration_cast<std::chrono::microseconds>(clock_() - job.admitted_at);
      if (waited > config_.queue_deadline) {
        drop_expired_job(lane, std::move(job), waited);
        continue;
      }
    }
    run_job(lane, std::move(job));
    // A lane whose respawn failed has no session to run jobs on: retire.
    {
      const util::MutexLock lock(queue_mutex_);
      if (lane_flags_[lane].dead) {
        lane_flags_[lane].exited = true;
        return;
      }
    }
  }
}

void VariantFleet::drop_expired_job(unsigned lane, PendingJob job,
                                    std::chrono::microseconds waited) {
  JobOutcome outcome;
  outcome.job_id = job.id;
  outcome.trace_span = job.trace_span;
  outcome.error = kDeadlineDropError;
  outcome.latency = waited;
  telemetry_.note_deadline_dropped();
  if (trace_) {
    trace_->record(lane_tracks_[lane], obs::TraceEventKind::kJobDeadlineDropped,
                   job.trace_span, 0, job.id, static_cast<std::uint64_t>(waited.count()));
  }
  job.promise.set_value(std::move(outcome));
}

void VariantFleet::run_job(unsigned lane, PendingJob job) {
  JobOutcome outcome;
  outcome.job_id = job.id;
  outcome.trace_span = job.trace_span;

  // The lane's session is always installed and valid here: a dead lane's
  // worker retires before its next run_job, and a failed respawn leaves the
  // (poisoned, never-reused) old session in the slot.
  core::NVariantSystem* system = nullptr;
  std::uint64_t session_span = 0;
  {
    const util::MutexLock lock(sessions_mutex_);
    outcome.session_id = sessions_[lane].id;
    session_span = sessions_[lane].trace_span;
    system = sessions_[lane].system.get();
  }
  if (trace_) {
    // The job's span, parented to the serving session's draw span: the
    // session draw -> job -> (quarantine -> alert -> ...) chain starts here.
    trace_->record(lane_tracks_[lane], obs::TraceEventKind::kJobStarted, job.trace_span,
                   session_span, job.id, outcome.session_id);
  }

  // Latency is measured on the INJECTED clock, like every other fleet
  // duration: under a ManualClock a sample is exactly the time the test (or
  // experiment) advanced during the job — not wall-clock noise that would
  // poison the population experiments' telemetry.
  const auto start = clock_();
  try {
    outcome.report = job.fn(*system);
  } catch (const std::exception& e) {
    outcome.error = e.what();
  } catch (...) {
    outcome.error = "job raised a non-standard exception";
  }
  // A job that threw between launch() and stop() leaves its session thread
  // live; harvest them before the session is reused or quarantined. Keep
  // the harvested report even alongside an error: if the monitor tripped
  // before the job threw, the quarantine record must retain the REAL alarm,
  // not a synthesized guest-error.
  if (system->running()) outcome.report = system->stop();
  const auto latency = std::chrono::duration_cast<std::chrono::microseconds>(clock_() - start);
  outcome.latency = latency;

  telemetry_.record_latency(lane, static_cast<std::uint64_t>(latency.count()));
  telemetry_.add_syscall_rounds(outcome.report.syscall_rounds);
  if (!outcome.error.empty()) {
    telemetry_.note_job_error();
  } else if (outcome.report.attack_detected) {
    telemetry_.note_alarmed();
  } else {
    telemetry_.note_completed();
  }
  if (trace_) {
    // b: 0 clean, 1 divergence alarm, 2 job error.
    const std::uint64_t verdict = !outcome.error.empty()            ? 2
                                  : outcome.report.attack_detected ? 1
                                                                   : 0;
    trace_->record(lane_tracks_[lane], obs::TraceEventKind::kJobFinished, job.trace_span, 0,
                   outcome.report.syscall_rounds, verdict);
  }
  if (outcome.ok()) {
    const util::MutexLock lock(sessions_mutex_);
    ++sessions_[lane].jobs_served;
  } else {
    // Rotation skips a respawning lane, and the load harness waits it out.
    {
      const util::MutexLock lock(queue_mutex_);
      lane_flags_[lane].respawning = true;
    }
    if (config_.respawn_hook) config_.respawn_hook(lane);
    respawn(lane, outcome);
    {
      const util::MutexLock lock(queue_mutex_);
      lane_flags_[lane].respawning = false;
    }
  }
  // Every finished job is a decay opportunity: a serving fleet relaxes a
  // tightened policy on its own once the quiet period passes.
  poll_adaptive();
  job.promise.set_value(std::move(outcome));
}

void VariantFleet::respawn(unsigned lane, JobOutcome& outcome) {
  outcome.session_quarantined = true;
  telemetry_.note_quarantined();

  QuarantineRecord record;
  std::uint64_t session_span = 0;  // the quarantined session's draw span
  {
    const util::MutexLock lock(sessions_mutex_);
    record.session_id = sessions_[lane].id;
    record.fingerprint = sessions_[lane].fingerprint;
    record.jobs_served = sessions_[lane].jobs_served;
    session_span = sessions_[lane].trace_span;
  }
  record.report = outcome.report;
  if (outcome.report.alarm.has_value()) {
    record.alarm = *outcome.report.alarm;
  } else {
    record.alarm = core::Alarm{core::AlarmKind::kGuestError, core::Alarm::kAllVariants,
                               outcome.error.empty() ? "job failed without an alarm"
                                                     : outcome.error};
  }
  if (trace_) {
    // The quarantine carries the JOB's span (the incident) and parents to
    // the burned session's draw span — one chain from draw to quarantine.
    trace_->record(lane_tracks_[lane], obs::TraceEventKind::kQuarantine, outcome.trace_span,
                   session_span, record.session_id, record.jobs_served, record.fingerprint);
  }

  // A rotation order already drew this lane's next session, and no job has
  // seen it: it replaces the poisoned session without another draw, and
  // counts as the rotation it was ordered as.
  std::optional<Rotation> rotation;
  {
    const util::MutexLock lock(queue_mutex_);
    rotation = std::exchange(lane_flags_[lane].rotation, std::nullopt);
  }
  if (rotation) {
    record.replacement_id = rotation->session.id;
    record.replacement_fingerprint = rotation->session.fingerprint;
    rotate_lane(lane, std::move(*rotation));
  } else {
    auto replacement = factory_.make_session();
    (void)refresh_keyspace_gauge();
    if (replacement) {
      record.replacement_id = replacement->id;
      record.replacement_fingerprint = replacement->fingerprint;
      const std::uint64_t replacement_span = replacement->trace_span;
      // The poisoned session is torn down when this block ends, outside the
      // lock every lane's run_job takes.
      Session poisoned;
      {
        const util::MutexLock lock(sessions_mutex_);
        poisoned = std::exchange(sessions_[lane], std::move(*replacement));
      }
      telemetry_.note_respawned();
      if (trace_) {
        trace_->record(lane_tracks_[lane], obs::TraceEventKind::kRespawn, replacement_span,
                       outcome.trace_span, record.replacement_id, 0,
                       record.replacement_fingerprint);
      }
    } else {
      // Keep the poisoned session out of service rather than serving through
      // a known-compromised reexpression; the lane retires and the surviving
      // lanes serve the queue.
      record.replacement_fingerprint = "(respawn failed: " + replacement.error() + ")";
      if (trace_) {
        trace_->record(lane_tracks_[lane], obs::TraceEventKind::kLaneRetired, 0,
                       outcome.trace_span, lane, 0, replacement.error());
      }
      telemetry_.note_lane_retired();
      const util::MutexLock lock(queue_mutex_);
      lane_flags_[lane].dead = true;
      retire_lane_locked(lane);
    }
  }

  // Population-level detection: fold this incident into the correlator and
  // escalate when it crosses the campaign threshold. Observed BEFORE the log
  // push so the record (with its embedded RunReport) can be moved, not
  // copied, on the recovering worker's thread.
  auto alert = correlator_.observe(record.alarm, record.session_id, record.fingerprint);
  {
    const util::MutexLock lock(quarantine_mutex_);
    quarantine_log_.push_back(std::move(record));
    if (quarantine_log_.size() > kQuarantineLogCapacity) quarantine_log_.pop_front();
  }
  // Every quarantine is attacker activity: an ongoing campaign whose later
  // incidents merely JOIN (no re-alert) must still defer the adaptive decay.
  if (adaptive_.has_value()) adaptive_->on_incident();
  if (alert.has_value()) {
    telemetry_.note_campaign();
    if (trace_) {
      // A NEW span for the fleet-level alert, parented to the K-th incident
      // (this job) that crossed the threshold. Stamped on the alert BEFORE
      // on_campaign so gossip subscribers can parent their remote tighten.
      alert->trace_span = trace_->new_span();
      trace_->record(ops_track_, obs::TraceEventKind::kCampaignAlert, alert->trace_span,
                     outcome.trace_span, alert->id, alert->members, alert->signature.key());
    }
    if (adaptive_.has_value()) {
      const util::MutexLock install_lock(adaptive_install_mutex_);
      if (auto next = adaptive_->on_alert(*alert)) {
        correlator_.set_policy(*next);
        telemetry_.note_policy_tightened();
        if (trace_) {
          trace_->record(ops_track_, obs::TraceEventKind::kPolicyTightened, 0,
                         alert->trace_span, next->threshold, next->window.count());
        }
      }
    }
    // Rotation escalation reads the LIVE policy: adaptation may have armed
    // rotate_fleet_on_alert for exactly this alert even though the baseline
    // posture leaves it off.
    if (correlator_.policy().rotate_fleet_on_alert) {
      request_rotation_except(lane, alert->trace_span);
    }
    if (config_.on_campaign) config_.on_campaign(*alert);
  }
}

void VariantFleet::request_rotation_except(unsigned lane, std::uint64_t parent_span) {
  // Campaign escalation outranks the low-keyspace backoff (an active attack
  // is exactly when a burned reexpression must leave service) but yields to
  // exhaustion: drawing from an empty factory can only churn rotations_failed.
  if (refresh_keyspace_gauge().exhausted()) return;
  const util::MutexLock lock(queue_mutex_);
  // The quarantining lane just respawned fresh; every other live lane
  // rotates before its next job (a lane mid-job rotates right after it).
  (void)draw_rotations_locked(lane, parent_span);
  queue_not_empty_.notify_all();
}

std::size_t VariantFleet::draw_rotations_locked(std::optional<unsigned> except,
                                                std::uint64_t parent_span) {
  std::size_t named = 0;
  for (unsigned lane = 0; lane < pool_size_; ++lane) {
    // A lane mid-respawn is about to install a fresh draw anyway, and the
    // unique reexpression space is finite: don't burn a draw rotating it.
    LaneFlags& flags = lane_flags_[lane];
    if (except == lane || flags.dead || flags.exited || flags.respawning || flags.rotation) {
      continue;
    }
    ++named;
    auto replacement = factory_.make_session();
    (void)refresh_keyspace_gauge();
    if (!replacement) {
      // Rotation is best-effort — the lane keeps serving on its old session —
      // but a fleet that silently keeps burned reexpressions in service after
      // a rotation order is an operator hazard: count it so a key-space-
      // exhausted factory shows up in telemetry instead of nowhere.
      telemetry_.note_rotation_failed();
      if (trace_) {
        trace_->record(lane_tracks_[lane], obs::TraceEventKind::kRotationFailed, 0, parent_span,
                       lane, 0, replacement.error());
      }
      continue;
    }
    flags.rotation = Rotation{std::move(*replacement), parent_span};
  }
  return named;
}

void VariantFleet::rotate_lane(unsigned lane, Rotation rotation) {
  const std::uint64_t replacement_span = rotation.session.trace_span;
  const std::uint64_t replacement_id = rotation.session.id;
  // The replaced session is torn down when this function returns, outside
  // the lock every lane's run_job takes.
  Session replaced;
  {
    const util::MutexLock lock(sessions_mutex_);
    replaced = std::exchange(sessions_[lane], std::move(rotation.session));
  }
  if (trace_) {
    trace_->record(lane_tracks_[lane], obs::TraceEventKind::kRotation, replacement_span,
                   rotation.parent_span, replacement_id);
  }
  // Event first, then counter: a reader who sees sessions_rotated move must
  // find the kRotation event already recorded.
  telemetry_.note_rotated();
}

void VariantFleet::retire_lane_locked(unsigned lane) {
  // Jobs sent to this lane can never run; jobs any lane may run stay queued
  // for the survivors — unless none survives.
  const bool survivors = runnable_locked(std::nullopt);
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (survivors && it->lane != lane) {
      ++it;
      continue;
    }
    total_queued_.fetch_sub(1, std::memory_order_relaxed);
    JobOutcome outcome;
    outcome.job_id = it->id;
    outcome.trace_span = it->trace_span;
    outcome.error = kDeadLaneError;
    telemetry_.note_job_error();
    it->promise.set_value(std::move(outcome));
    it = queue_.erase(it);
  }
  // Failed jobs freed capacity: submitters blocked on backpressure must
  // re-check (and hit enqueue's no-live-lane fast-fail instead of hanging).
  queue_not_full_.notify_all();
  // And they shrank total_queued_: a deadline drain waiting for the queue to
  // empty must re-check now, not on its fallback poll.
  drain_progress_.notify_all();
}

}  // namespace nv::fleet
