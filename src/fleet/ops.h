// Fleet operations: the pieces that turn the session pool into an operable
// service.
//
//   CampaignCorrelator  folds per-session quarantines into fleet-level
//                       CAMPAIGNS: K quarantines inside a sliding window that
//                       share one AlarmSignature are a coordinated attack on
//                       the population (Chen et al.'s fleet-scale view), not K
//                       independent incidents. One CampaignAlert per campaign;
//                       later same-signature quarantines JOIN it.
//   ManualClock         injectable time source so correlator windows and
//                       drain deadlines are testable without sleeps. Every
//                       ops component takes a ClockFn; the default reads
//                       std::chrono::steady_clock.
//   DrainReport         outcome of a deadline-bounded graceful shutdown:
//                       admission stopped, in-flight jobs finished, queued
//                       jobs past the deadline abandoned (and returned).
#ifndef NV_FLEET_OPS_H
#define NV_FLEET_OPS_H

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/alarm.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nv::fleet {

/// Injectable time source. Default-constructed (empty) means "read the real
/// steady clock"; tests install ManualClock::fn() instead.
using ClockFn = std::function<std::chrono::steady_clock::time_point()>;

/// Resolve an optional clock to a callable (real steady clock when empty).
[[nodiscard]] ClockFn resolve_clock(ClockFn clock);

/// Deterministic clock for tests: time moves only when advance() is called.
/// Thread-safe; hand ManualClock::fn() to FleetConfig/CampaignCorrelator.
class ManualClock {
 public:
  [[nodiscard]] std::chrono::steady_clock::time_point now() const {
    const util::MutexLock lock(mutex_);
    return now_;
  }

  void advance(std::chrono::milliseconds delta) {
    std::vector<std::function<void()>> wakers;
    {
      const util::MutexLock lock(mutex_);
      now_ += delta;
      wakers = wakers_;  // invoke outside the lock: a waker may read now()
    }
    for (const auto& waker : wakers) waker();
  }

  /// Register a callback invoked after every advance(). Components that block
  /// on a deadline measured against an injected clock (VariantFleet's drain)
  /// cannot see manual time move on their own; a subscribed waker (e.g.
  /// [&fleet] { fleet.notify_time_advanced(); }) turns advance() into an
  /// event instead of something to poll for. The subscriber must outlive the
  /// clock or the clock must stop advancing first.
  void subscribe(std::function<void()> waker) {
    const util::MutexLock lock(mutex_);
    wakers_.push_back(std::move(waker));
  }

  /// A ClockFn view of this clock; the clock must outlive it.
  [[nodiscard]] ClockFn fn() {
    return [this] { return now(); };
  }

 private:
  mutable util::Mutex mutex_;
  // Epoch; only deltas matter.
  std::chrono::steady_clock::time_point now_ NV_GUARDED_BY(mutex_){};
  std::vector<std::function<void()>> wakers_ NV_GUARDED_BY(mutex_);
};

/// When does a set of quarantines become a campaign, and what does the fleet
/// do about it.
struct CampaignPolicy {
  /// K: same-signature quarantines needed inside the window to raise an alert.
  unsigned threshold = 3;
  /// Sliding correlation window; quarantines older than this age out.
  std::chrono::milliseconds window{10'000};
  /// Escalation: on alert, proactively re-diversify every other live session
  /// (the attacker mapped one reexpression per burned session — rotating the
  /// survivors invalidates whatever fleet-wide knowledge the campaign bought).
  bool rotate_fleet_on_alert = false;
};

/// One fleet-level alert: a campaign, with every member incident folded in.
struct CampaignAlert {
  /// session_ids and fingerprints keep the campaign's first kKeptMembers
  /// members; `members` counts them all.
  static constexpr std::size_t kKeptMembers = 64;

  std::uint64_t id = 0;
  core::AlarmSignature signature;
  /// Quarantines folded into this campaign (>= threshold at raise time;
  /// later same-signature quarantines join, not re-alert).
  std::uint64_t members = 0;
  /// The first kKeptMembers quarantined sessions, in the order they joined.
  std::vector<std::uint64_t> session_ids;
  /// Diversity identities the attacker burned, one per kept member session.
  std::vector<std::string> fingerprints;
  std::chrono::steady_clock::time_point first_seen{};
  std::chrono::steady_clock::time_point last_seen{};
  /// Causality id of the raising fleet's kCampaignAlert trace event (0 =
  /// untraced). Set by VariantFleet on the alert it hands to on_campaign /
  /// gossip, so a remote shard's kRemoteTighten can point back at the origin
  /// shard's alert — the cross-shard pre-warn story as a provable chain.
  std::uint64_t trace_span = 0;

  [[nodiscard]] std::string describe() const;
};

/// Sliding-window correlator over quarantine signatures. Thread-safe:
/// observe() is called from worker threads mid-respawn, alerts() from anyone.
class CampaignCorrelator {
 public:
  explicit CampaignCorrelator(CampaignPolicy policy, ClockFn clock = {});

  /// Feed one quarantine. Returns the freshly-raised alert when this incident
  /// is the K-th of its signature inside the window; nullopt when it is below
  /// threshold or JOINS an already-raised campaign (exactly one alert per
  /// campaign). A campaign closes when all its incidents age out of the
  /// window; a later burst of the same signature is a NEW campaign.
  [[nodiscard]] std::optional<CampaignAlert> observe(const core::Alarm& alarm,
                                                     std::uint64_t session_id,
                                                     const std::string& fingerprint);

  /// Every alert raised so far, including members joined after the raise.
  /// Prunes expired tracks first, so a campaign whose window emptied while
  /// the fleet sat idle reads as CLOSED here — not open forever just because
  /// no further observe() happened to slide the window.
  [[nodiscard]] std::vector<CampaignAlert> alerts() const;
  /// The alerts whose campaigns are still LIVE right now (window non-empty on
  /// the injected clock). Empty on a fleet that has been quiet for a window.
  [[nodiscard]] std::vector<CampaignAlert> open_campaigns() const;
  [[nodiscard]] std::uint64_t incidents_observed() const;
  [[nodiscard]] CampaignPolicy policy() const;
  /// Replace the live policy fleet-wide (thread-safe; the adaptive controller
  /// tightens/decays through this). A lowered threshold applies from the next
  /// observe(); a widened window immediately keeps older incidents alive.
  void set_policy(CampaignPolicy policy);

 private:
  struct Incident {
    std::chrono::steady_clock::time_point at;
    std::uint64_t session_id = 0;
    std::string fingerprint;
  };
  struct Track {
    std::deque<Incident> window;             // incidents still inside the window
    std::optional<std::size_t> open_alert;   // index into alerts_ while live
  };

  /// Slide every track's window to `now`; erase emptied tracks (their
  /// campaigns close). Called under mutex_ from observe() and the read APIs —
  /// tracks_ is mutable so const readers can expire idle campaigns too.
  void prune_locked(std::chrono::steady_clock::time_point now) const NV_REQUIRES(mutex_);

  ClockFn clock_;
  mutable util::Mutex mutex_;
  CampaignPolicy policy_ NV_GUARDED_BY(mutex_);
  // AlarmSignature::key() -> live window; mutable so const readers can expire
  // idle campaigns via prune_locked().
  mutable std::map<std::string, Track> tracks_ NV_GUARDED_BY(mutex_);
  std::vector<CampaignAlert> alerts_ NV_GUARDED_BY(mutex_);
  std::uint64_t incidents_ NV_GUARDED_BY(mutex_) = 0;
};

/// Outcome of VariantFleet::shutdown(deadline).
struct DrainReport {
  /// True when every queued job finished before the deadline (nothing was
  /// abandoned). In-flight jobs are ALWAYS run to completion either way.
  bool clean = false;
  std::uint64_t jobs_abandoned = 0;
  /// Ids of the abandoned jobs, matching the JobOutcome.job_id their
  /// submitters' futures resolve with.
  std::vector<std::uint64_t> abandoned_job_ids;

  [[nodiscard]] std::string describe() const;
};

}  // namespace nv::fleet

#endif  // NV_FLEET_OPS_H
