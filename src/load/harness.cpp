#include "load/harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <queue>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "fleet/jobs.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/thread_annotations.h"

namespace nv::load {

namespace {

using TimePoint = std::chrono::steady_clock::time_point;

[[nodiscard]] std::chrono::nanoseconds to_ns(sim::SimTime t) {
  return std::chrono::nanoseconds(static_cast<std::int64_t>(t));
}

/// Clock-gated lane occupancy: a job parks here until the ManualClock reaches
/// its virtual service completion. The harness subscribes wake() to the
/// clock, so every advance() re-evaluates all parked waiters; any_due() lets
/// the driver's settle loop see waiters whose deadline has passed but who
/// have not yet woken and unregistered (i.e. the fleet is not quiescent).
///
/// Lock order: this mutex is taken first, then the clock's (inside now()).
/// ManualClock::advance() invokes wakers OUTSIDE its own lock, so wake()
/// taking this mutex cannot invert the order.
class VirtualService {
 public:
  void wake() {
    const util::MutexLock lock(mutex_);
    cv_.notify_all();
  }

  void wait_until(const fleet::ManualClock& clock, TimePoint deadline) {
    util::MutexLock lock(mutex_);
    const auto ticket = waiting_.insert(deadline);
    while (clock.now() < deadline) cv_.wait(lock.native());
    waiting_.erase(ticket);
  }

  [[nodiscard]] bool any_due(TimePoint now) const {
    const util::MutexLock lock(mutex_);
    return !waiting_.empty() && *waiting_.begin() <= now;
  }

  /// Currently-registered waiters. The driver's quiescence check compares
  /// this against the number of jobs inside their bodies: equality means
  /// every in-flight job is parked on the gate (none is still between the
  /// clock read and the park, or between the wake and its body exit), so
  /// advancing the clock cannot change what any job observes.
  [[nodiscard]] std::size_t parked() const {
    const util::MutexLock lock(mutex_);
    return waiting_.size();
  }

 private:
  mutable util::Mutex mutex_;
  std::condition_variable cv_;
  std::multiset<TimePoint> waiting_ NV_GUARDED_BY(mutex_);
};

/// Benign end-to-end latency samples, fed from worker threads.
class LatencyCollector {
 public:
  void add(double ms) {
    const util::MutexLock lock(mutex_);
    samples_.add(ms);
  }
  [[nodiscard]] util::Samples take() const {
    const util::MutexLock lock(mutex_);
    return samples_;
  }

 private:
  mutable util::Mutex mutex_;
  util::Samples samples_ NV_GUARDED_BY(mutex_);
};

struct Completion {
  std::uint64_t client = 0;
  TimePoint at{};
};

/// Closed-loop feedback path: workers record completions, the driver drains
/// them each quantum to schedule the client's next request after think time.
class CompletionLog {
 public:
  void push(std::uint64_t client, TimePoint at) {
    const util::MutexLock lock(mutex_);
    done_.push_back({client, at});
  }
  [[nodiscard]] std::vector<Completion> take() {
    const util::MutexLock lock(mutex_);
    return std::exchange(done_, {});
  }
  [[nodiscard]] bool empty() const {
    const util::MutexLock lock(mutex_);
    return done_.empty();
  }

 private:
  mutable util::Mutex mutex_;
  std::vector<Completion> done_ NV_GUARDED_BY(mutex_);
};

/// A submitted request awaiting its outcome.
struct Record {
  std::future<fleet::JobOutcome> future;
  bool resolved = false;
};

}  // namespace

LoadReport run_load(const LoadHarnessConfig& config) {
  if (config.quantum <= std::chrono::milliseconds::zero()) {
    throw std::invalid_argument("load harness quantum must be positive");
  }
  if (config.pool_size == 0) {
    throw std::invalid_argument("load harness needs an explicit pool size");
  }
  if (config.mode == LoadMode::kClosedLoop) {
    if (config.clients == 0) {
      throw std::invalid_argument("closed loop needs at least one client");
    }
    if (config.queue_capacity < config.clients) {
      throw std::invalid_argument(
          "closed loop needs queue_capacity >= clients: a client whose own "
          "request is refused never completes, wedging the loop");
    }
  }

  fleet::ManualClock clock;
  VirtualService service;

  fleet::FleetConfig fleet_config;
  fleet_config.spec.n_variants = 2;
  fleet_config.spec.variations = {"uid-xor"};
  fleet_config.pool_size = config.pool_size;
  fleet_config.queue_capacity = config.queue_capacity;
  fleet_config.admission = config.admission;
  fleet_config.queue_deadline = config.queue_deadline;
  fleet_config.seed = config.fleet_seed;
  fleet_config.campaign = config.campaign;
  fleet_config.adaptive.enabled = config.adaptive;
  fleet_config.clock = clock.fn();
  fleet::VariantFleet fleet(std::move(fleet_config));
  clock.subscribe([&service] { service.wake(); });
  clock.subscribe([&fleet] { (void)fleet.notify_time_advanced(); });

  const TimePoint epoch = clock.now();
  const auto to_tp = [epoch](sim::SimTime at) { return epoch + to_ns(at); };

  // started/finished bracket every job body, so started - finished is the
  // number of requests currently occupying worker lanes.
  std::atomic<std::uint64_t> started{0};
  std::atomic<std::uint64_t> finished{0};
  LatencyCollector latencies;
  CompletionLog completions;
  const bool closed = config.mode == LoadMode::kClosedLoop;
  const fleet::FleetJob churn = fleet::jobs::uid_churn(config.uid_churn_rounds);

  // The job body: a slice of REAL MVEE work, then park on the virtual
  // service gate until the manual clock reaches completion. Timestamps are
  // taken from the precomputed deadline, not clock.now() after the wait —
  // the clock may advance between the wake and the read, and the deadline is
  // the deterministic value.
  //
  // Ordering is the determinism linchpin: the clock is read BEFORE `started`
  // is bumped. Until the bump, the driver's quiescence check counts this job
  // as unstarted and refuses to advance — so the quantum a job stamps its
  // service deadline in is decided by the settle protocol, not by how fast
  // the OS scheduled the worker thread.
  const auto make_job = [&](const Arrival arrival, const TimePoint scheduled) {
    return fleet::FleetJob([&clock, &service, &latencies, &completions, &started, &finished,
                            &churn, closed, arrival,
                            scheduled](core::NVariantSystem& system) -> core::RunReport {
      const TimePoint service_done = clock.now() + to_ns(arrival.service);
      started.fetch_add(1, std::memory_order_acq_rel);
      struct Finish {
        std::atomic<std::uint64_t>& counter;
        ~Finish() { counter.fetch_add(1, std::memory_order_acq_rel); }
      } finish{finished};
      if (arrival.klass == RequestClass::kAttack) {
        // The probe occupies its lane like any request, then trips the
        // detector: one fixed signature, so the correlator folds every probe
        // of the run into a single campaign.
        service.wait_until(clock, service_done);
        if (closed) completions.push(arrival.client, service_done);
        throw std::runtime_error(kAttackProbeError);
      }
      core::RunReport report = churn(system);
      service.wait_until(clock, service_done);
      latencies.add(std::chrono::duration<double, std::milli>(service_done - scheduled).count());
      if (closed) completions.push(arrival.client, service_done);
      return report;
    });
  };

  std::vector<Record> records;
  std::uint64_t offered = 0;
  // Driver-side admission ledger: jobs the fleet actually accepted. A door
  // refusal (kShedError) resolves its future before submit() returns, so the
  // readiness probe below classifies synchronously on the driver thread —
  // the quiescence check can then count unstarted work exactly, without
  // racing the workers' queue pops the way queue_depth_hint() would.
  std::uint64_t accepted = 0;
  const auto submit_arrival = [&](const Arrival& arrival) {
    Record record;
    record.future = fleet.submit(make_job(arrival, to_tp(arrival.at)));
    ++offered;
    if (record.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      record.resolved = true;  // refused at the door; counted in jobs_shed
    } else {
      ++accepted;
    }
    records.push_back(std::move(record));
  };

  // Resolve finished futures; returns how many are still outstanding.
  const auto harvest = [&records]() {
    std::size_t pending = 0;
    for (Record& record : records) {
      if (record.resolved) continue;
      if (record.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        record.resolved = true;
      } else {
        ++pending;
      }
    }
    return pending;
  };

  // Whole-run watchdog on the REAL clock: a healthy run is bounded by
  // virtual-time progress alone; only a wedged fleet (a harness bug) gets
  // here, and it must fail loudly instead of hanging CI.
  const auto real_give_up = std::chrono::steady_clock::now() + config.real_time_budget;
  const auto fail_run = [&](const char* message) {
    // The fleet destructor drains queued jobs by RUNNING them, and they park
    // on the virtual service gate — keep virtual time moving from a side
    // thread until the drain finishes, then report the failure.
    std::atomic<bool> stop{false};
    std::thread advancer([&clock, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        clock.advance(std::chrono::milliseconds(100));
        std::this_thread::yield();
      }
    });
    fleet.shutdown();
    stop.store(true, std::memory_order_release);
    advancer.join();
    throw std::runtime_error(message);
  };

  // Accepted jobs that will never run a body: kDeadlineDrop expires them at
  // pop time on a worker thread, so the count is read from telemetry. Only
  // that policy can drop; the other modes skip the snapshot lock.
  const auto dropped_so_far = [&]() -> std::uint64_t {
    if (config.admission != fleet::AdmissionPolicy::kDeadlineDrop) return 0;
    return fleet.telemetry().snapshot().jobs_deadline_dropped;
  };

  // Quiescent: virtual time may move without changing what any job observes.
  // Four conditions, each closing a distinct race:
  //   1. no parked job is past its service deadline (it would wake and run);
  //   2. every job that entered its body is parked on the gate — a job
  //      between pop and its clock read, mid-churn, or past its wake but
  //      still inside its body would otherwise straddle the advance;
  //   3. every worker is accounted for: parked inside a body or blocked on
  //      the queue condvar. A worker mid-pop, between pop and the body's
  //      clock read, in its post-body epilogue, or mid-respawn is neither —
  //      and would otherwise make progress across the advance;
  //   4. no idle worker may pop a queued job (it will pop any moment), and
  //      no lane is mid-swap (a deadline force-rotation swaps a lane's
  //      session while its worker sits idle, so advancing mid-swap would let
  //      the factory's real-time speed decide which session a job meets).
  // Work the check holds the clock for progresses in real time to a counted
  // state without virtual time moving, so settle() terminates.
  const auto quiescent = [&]() {
    if (service.any_due(clock.now())) return false;
    const std::uint64_t done = finished.load(std::memory_order_acquire);
    const std::uint64_t begun = started.load(std::memory_order_acquire);
    const std::uint64_t in_body = begun - done;
    if (service.parked() != in_body) return false;
    const fleet::VariantFleet::IdleSnapshot idle = fleet.idle_snapshot();
    if (idle.idle_backlog || idle.lanes_in_flux != 0) return false;
    return in_body + idle.idle_workers == config.pool_size;
  };
  const auto settle = [&] {
    int stable = 0;
    while (stable < 3) {
      if (std::chrono::steady_clock::now() >= real_give_up) {
        fail_run("load harness watchdog: fleet failed to quiesce");
      }
      stable = quiescent() ? stable + 1 : 0;
      std::this_thread::yield();
    }
  };
  // Every accepted job ran its body to completion (or was dropped): the
  // terminal condition of the drain loops. `finished` is read FIRST so a
  // racing body can only make the check false, never falsely true.
  const auto all_bodies_done = [&]() {
    const std::uint64_t done = finished.load(std::memory_order_acquire);
    const std::uint64_t begun = started.load(std::memory_order_acquire);
    return done == begun && begun == accepted - dropped_so_far();
  };

  if (config.mode == LoadMode::kOpenLoop) {
    const std::vector<Arrival> schedule = generate(config.workload);
    records.reserve(schedule.size());
    // kBlock holding pen: arrivals that found the fleet full, FIFO. The
    // driver itself must never block (see header), so it checks headroom via
    // the lock-free hint — as the sole submitter, depth can only fall
    // between the check and the submit, so submit() cannot block.
    std::deque<Arrival> backlog;
    std::size_t next = 0;
    const auto headroom = [&]() {
      return fleet.queue_depth_hint() < config.queue_capacity;
    };
    // At most ONE step of work per call; returns whether it did anything.
    // One-at-a-time is the determinism linchpin: each submission happens from
    // a settled fleet (see the driver loop), so the queue depth an admission
    // decision sees is a function of the schedule alone — a burst would race
    // the workers' pops and shed a different subset each run.
    const auto pump = [&]() -> bool {
      const TimePoint now = clock.now();
      if (config.admission == fleet::AdmissionPolicy::kBlock) {
        if (!backlog.empty() && headroom()) {
          submit_arrival(backlog.front());
          backlog.pop_front();
          return true;
        }
        if (next < schedule.size() && to_tp(schedule[next].at) <= now) {
          if (backlog.empty() && headroom()) {
            submit_arrival(schedule[next]);
          } else {
            backlog.push_back(schedule[next]);
          }
          ++next;
          return true;
        }
        return false;
      }
      // kShed / kDeadlineDrop: the fleet's own admission path decides.
      if (next < schedule.size() && to_tp(schedule[next].at) <= now) {
        submit_arrival(schedule[next]);
        ++next;
        return true;
      }
      return false;
    };
    // settle() BEFORE each pump step: the submission lands on a fleet where
    // every in-flight body is parked and the queue has drained as far as it
    // can, then the loop re-settles before the next step. Only when a settled
    // fleet has nothing due does virtual time advance.
    for (;;) {
      settle();
      if (!pump()) {
        if (next >= schedule.size() && backlog.empty()) break;
        clock.advance(config.quantum);
      }
    }
  } else {
    // Closed loop: `clients` concurrent users, each submit -> wait -> think
    // -> submit, with every client's requests and think times drawn from its
    // own split Rng stream (determinism is per-client, independent of the
    // order completions happen to land in).
    struct PendingArrival {
      TimePoint at{};
      Arrival arrival;
    };
    const auto later = [](const PendingArrival& a, const PendingArrival& b) {
      return a.at > b.at;
    };
    std::priority_queue<PendingArrival, std::vector<PendingArrival>, decltype(later)> queue(
        later);

    util::Rng root(config.workload.seed);
    std::vector<util::Rng> client_rng;
    client_rng.reserve(config.clients);
    for (unsigned client = 0; client < config.clients; ++client) {
      client_rng.push_back(root.split());
    }
    const double think_ms = static_cast<double>(config.think_time.count());
    const TimePoint horizon = to_tp(config.workload.duration);

    const auto schedule_next = [&](std::uint64_t client, TimePoint from) {
      util::Rng& rng = client_rng[static_cast<std::size_t>(client)];
      const TimePoint at = from + to_ns(sim::from_ms(rng.exponential(think_ms)));
      if (at >= horizon) return;  // this client's session is over
      PendingArrival pending;
      pending.at = at;
      pending.arrival = draw_request(config.workload, rng);
      pending.arrival.client = client;
      pending.arrival.at =
          static_cast<sim::SimTime>(std::chrono::nanoseconds(at - epoch).count());
      queue.push(std::move(pending));
    };
    for (unsigned client = 0; client < config.clients; ++client) {
      schedule_next(client, epoch);
    }

    // settle() first for the same reason as the open loop, and at most one
    // submission per settled state: the set of completions visible at each
    // instant and the queue depth each submission meets are then
    // deterministic functions of the schedule. (Harvesting completions and
    // re-queueing think times touch no fleet state, so they batch freely.)
    for (;;) {
      settle();
      bool progress = false;
      for (const Completion& completion : completions.take()) {
        schedule_next(completion.client, completion.at);
        progress = true;
      }
      if (!queue.empty() && queue.top().at <= clock.now()) {
        submit_arrival(queue.top().arrival);
        queue.pop();
        progress = true;
      }
      if (progress) continue;  // re-settle before judging termination
      if (queue.empty() && all_bodies_done() && completions.empty()) break;
      clock.advance(config.quantum);
    }
  }

  // Drain phase 1: advance virtual time until every accepted body has run to
  // completion (or been deadline-dropped). Each advance is taken from a
  // settled state, so the number of quanta consumed — and hence duration_s —
  // is deterministic.
  while (!all_bodies_done()) {
    settle();
    if (all_bodies_done()) break;
    clock.advance(config.quantum);
  }
  // Drain phase 2: bodies are done, but a future resolves a moment AFTER its
  // body returns (the packaged_task epilogue). That tail needs only real
  // time, never another quantum — spinning here instead of advancing keeps
  // duration_s independent of epilogue timing.
  while (harvest() > 0) {
    if (std::chrono::steady_clock::now() >= real_give_up) {
      fail_run("load harness watchdog: futures failed to resolve");
    }
    std::this_thread::yield();
  }
  const double duration_s =
      std::chrono::duration<double>(clock.now() - epoch).count();
  fleet.shutdown();

  LoadReport report;
  report.snapshot = fleet.telemetry().snapshot();
  report.offered = offered;
  report.admitted = report.snapshot.jobs_submitted;
  report.shed = report.snapshot.jobs_shed;
  report.deadline_dropped = report.snapshot.jobs_deadline_dropped;
  report.completed = report.snapshot.jobs_completed;
  report.errors = report.snapshot.job_errors;
  report.alarmed = report.snapshot.jobs_alarmed;
  report.abandoned = report.snapshot.jobs_abandoned;
  report.quarantined = report.snapshot.sessions_quarantined;
  report.campaign_alerts = report.snapshot.campaign_alerts;
  report.queue_high_watermark = report.snapshot.queue_high_watermark;
  report.admission_blocked_us = report.snapshot.admission_blocked_us;
  report.duration_s = duration_s;
  if (duration_s > 0.0) {
    report.offered_per_sec = static_cast<double>(report.offered) / duration_s;
    report.goodput_per_sec = static_cast<double>(report.completed) / duration_s;
  }
  if (report.offered > 0) {
    report.shed_fraction =
        static_cast<double>(report.shed) / static_cast<double>(report.offered);
  }
  const util::Samples samples = latencies.take();
  report.latency_count = samples.count();
  if (samples.count() > 0) {
    report.latency_mean_ms = samples.mean();
    report.latency_p50_ms = samples.percentile(50.0);
    report.latency_p95_ms = samples.percentile(95.0);
    report.latency_p99_ms = samples.percentile(99.0);
  }
  return report;
}

std::string LoadReport::describe() const {
  return util::format(
      "load: offered %llu (%.1f/s) admitted %llu shed %llu (%.2f%%) dropped %llu | "
      "good %llu (%.1f/s) err %llu quarantined %llu campaigns %llu | "
      "p50 %.1f p95 %.1f p99 %.1f ms | watermark %llu blocked %llu us",
      static_cast<unsigned long long>(offered), offered_per_sec,
      static_cast<unsigned long long>(admitted), static_cast<unsigned long long>(shed),
      shed_fraction * 100.0, static_cast<unsigned long long>(deadline_dropped),
      static_cast<unsigned long long>(completed), goodput_per_sec,
      static_cast<unsigned long long>(errors), static_cast<unsigned long long>(quarantined),
      static_cast<unsigned long long>(campaign_alerts), latency_p50_ms, latency_p95_ms,
      latency_p99_ms, static_cast<unsigned long long>(queue_high_watermark),
      static_cast<unsigned long long>(admission_blocked_us));
}

std::size_t knee_index(const std::vector<LoadCurvePoint>& curve, double latency_factor,
                       double shed_threshold) {
  if (curve.empty()) return 0;
  const double base_p99 = curve.front().report.latency_p99_ms;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const LoadReport& report = curve[i].report;
    if (report.shed_fraction > shed_threshold) return i;
    if (base_p99 > 0.0 && report.latency_p99_ms > base_p99 * latency_factor) return i;
  }
  return curve.size();
}

}  // namespace nv::load
