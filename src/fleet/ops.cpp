#include "fleet/ops.h"

#include <utility>

#include "util/mutex.h"
#include "util/strings.h"

namespace nv::fleet {

ClockFn resolve_clock(ClockFn clock) {
  if (clock) return clock;
  return [] { return std::chrono::steady_clock::now(); };
}

CampaignCorrelator::CampaignCorrelator(CampaignPolicy policy, ClockFn clock)
    : clock_(resolve_clock(std::move(clock))), policy_(policy) {}

std::optional<CampaignAlert> CampaignCorrelator::observe(const core::Alarm& alarm,
                                                         std::uint64_t session_id,
                                                         const std::string& fingerprint) {
  const auto now = clock_();
  const core::AlarmSignature signature = core::signature_of(alarm);

  const util::MutexLock lock(mutex_);
  ++incidents_;
  prune_locked(now);

  Track& track = tracks_[signature.key()];
  track.window.push_back(Incident{now, session_id, fingerprint});

  if (track.open_alert.has_value()) {
    // Campaign already raised: fold this incident in, do not re-alert.
    CampaignAlert& alert = alerts_[*track.open_alert];
    ++alert.members;
    if (alert.session_ids.size() < CampaignAlert::kKeptMembers) {
      alert.session_ids.push_back(session_id);
      alert.fingerprints.push_back(fingerprint);
    }
    alert.last_seen = now;
    return std::nullopt;
  }
  if (track.window.size() < policy_.threshold) return std::nullopt;

  CampaignAlert alert;
  alert.id = static_cast<std::uint64_t>(alerts_.size());
  alert.signature = signature;
  alert.first_seen = track.window.front().at;
  alert.last_seen = now;
  alert.members = track.window.size();
  for (const Incident& incident : track.window) {
    if (alert.session_ids.size() == CampaignAlert::kKeptMembers) break;
    alert.session_ids.push_back(incident.session_id);
    alert.fingerprints.push_back(incident.fingerprint);
  }
  track.open_alert = alerts_.size();
  alerts_.push_back(alert);
  return alert;
}

// Slide EVERY track's window: incidents older than policy_.window age out,
// and a track whose window empties is erased outright — its campaign (if
// one was raised) is over, the raised alert lives on in alerts_, and a
// long-lived fleet seeing a stream of one-off signatures must not grow
// tracks_ without bound. The next burst of an erased signature starts
// fresh and may alert again. Reader APIs prune too: an IDLE fleet must not
// report a campaign as open forever just because nothing new quarantined.
void CampaignCorrelator::prune_locked(std::chrono::steady_clock::time_point now) const {
  for (auto it = tracks_.begin(); it != tracks_.end();) {
    std::deque<Incident>& window = it->second.window;
    while (!window.empty() && now - window.front().at > policy_.window) {
      window.pop_front();
    }
    it = window.empty() ? tracks_.erase(it) : std::next(it);
  }
}

std::vector<CampaignAlert> CampaignCorrelator::alerts() const {
  const auto now = clock_();
  const util::MutexLock lock(mutex_);
  prune_locked(now);
  return alerts_;
}

std::vector<CampaignAlert> CampaignCorrelator::open_campaigns() const {
  const auto now = clock_();
  const util::MutexLock lock(mutex_);
  prune_locked(now);
  std::vector<CampaignAlert> open;
  for (const auto& [key, track] : tracks_) {
    if (track.open_alert.has_value()) open.push_back(alerts_[*track.open_alert]);
  }
  return open;
}

std::uint64_t CampaignCorrelator::incidents_observed() const {
  const util::MutexLock lock(mutex_);
  return incidents_;
}

CampaignPolicy CampaignCorrelator::policy() const {
  const util::MutexLock lock(mutex_);
  return policy_;
}

void CampaignCorrelator::set_policy(CampaignPolicy policy) {
  const util::MutexLock lock(mutex_);
  policy_ = policy;
}

std::string CampaignAlert::describe() const {
  const auto span =
      std::chrono::duration_cast<std::chrono::milliseconds>(last_seen - first_seen);
  return util::format("campaign #%llu: %llu sessions share signature {%s} within %lld ms",
                      static_cast<unsigned long long>(id),
                      static_cast<unsigned long long>(members), signature.describe().c_str(),
                      static_cast<long long>(span.count()));
}

std::string DrainReport::describe() const {
  if (clean) return "drained cleanly: every queued job finished before the deadline";
  return util::format("deadline expired: %llu queued job(s) abandoned",
                      static_cast<unsigned long long>(jobs_abandoned));
}

}  // namespace nv::fleet
