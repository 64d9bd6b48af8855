#include "obs/trace.h"

#include <algorithm>

namespace nv::obs {

namespace {

ClockFn resolve(ClockFn clock) {
  if (clock) return clock;
  return [] { return std::chrono::steady_clock::now(); };
}

}  // namespace

std::string_view to_string(TraceEventKind kind) noexcept {
  switch (kind) {
    case TraceEventKind::kSessionDraw: return "session_draw";
    case TraceEventKind::kDrawRefused: return "draw_refused";
    case TraceEventKind::kBudgetRefusal: return "budget_refusal";
    case TraceEventKind::kJobAdmitted: return "job_admitted";
    case TraceEventKind::kJobRejected: return "job_rejected";
    case TraceEventKind::kJobStarted: return "job_started";
    case TraceEventKind::kJobFinished: return "job_finished";
    case TraceEventKind::kJobAbandoned: return "job_abandoned";
    case TraceEventKind::kSyscallRound: return "syscall_round";
    case TraceEventKind::kQuarantine: return "quarantine";
    case TraceEventKind::kRespawn: return "respawn";
    case TraceEventKind::kLaneRetired: return "lane_retired";
    case TraceEventKind::kRotation: return "rotation";
    case TraceEventKind::kRotationFailed: return "rotation_failed";
    case TraceEventKind::kCampaignAlert: return "campaign_alert";
    case TraceEventKind::kPolicyTightened: return "policy_tightened";
    case TraceEventKind::kPolicyDecayed: return "policy_decayed";
    case TraceEventKind::kKeyspaceLow: return "keyspace_low";
    case TraceEventKind::kKeyspaceExhausted: return "keyspace_exhausted";
    case TraceEventKind::kRemoteTighten: return "remote_tighten";
    case TraceEventKind::kRouteDecision: return "route_decision";
    case TraceEventKind::kGossipPublish: return "gossip_publish";
    case TraceEventKind::kGossipDeliver: return "gossip_deliver";
    case TraceEventKind::kClusterTick: return "cluster_tick";
    case TraceEventKind::kJobShed: return "job_shed";
    case TraceEventKind::kJobDeadlineDropped: return "job_deadline_dropped";
  }
  return "unknown";
}

TraceRecorder::TraceRecorder(TraceConfig config, ClockFn clock)
    : config_(config),
      kind_mask_(config.kind_mask),
      round_sample_(config.syscall_round_sample),
      clock_(resolve(std::move(clock))),
      epoch_(clock_()) {
  // Track 0 ("trace") always exists: the overflow alias for out-of-range ids
  // and the home for recorder-level events.
  (void)track("trace");
}

TraceRecorder::Track* TraceRecorder::track_at(std::uint32_t id) const noexcept {
  const std::uint32_t count = track_count_.load(std::memory_order_acquire);
  if (count == 0) return nullptr;          // construction not finished yet
  if (id >= count) id = 0;                 // alias misroutes to the overflow track
  return tracks_[id].get();
}

TraceRecorder::Histogram* TraceRecorder::histogram_at(std::uint32_t id) const noexcept {
  const std::uint32_t count = histogram_count_.load(std::memory_order_acquire);
  if (count == 0) return nullptr;
  if (id >= count) id = 0;  // alias misroutes onto slot 0
  return histograms_[id].get();
}

std::uint32_t TraceRecorder::track(const std::string& name) {
  const util::MutexLock lock(tracks_mutex_);
  const std::uint32_t count = track_count_.load(std::memory_order_relaxed);
  for (std::uint32_t id = 0; id < count; ++id) {
    if (tracks_[id]->name == name) return id;
  }
  if (count >= kMaxTracks) return 0;  // capped: alias onto the overflow track
  auto fresh = std::make_unique<Track>();
  fresh->name = name;
  tracks_[count] = std::move(fresh);
  track_count_.store(count + 1, std::memory_order_release);
  return count;
}

void TraceRecorder::record(std::uint32_t track, TraceEventKind kind, std::uint64_t span,
                           std::uint64_t parent, std::uint64_t a, std::uint64_t b,
                           std::string detail) {
  if (!enabled(kind)) return;
  Track* sink = track_at(track);
  if (sink == nullptr) return;

  TraceEvent event;
  event.kind = kind;
  event.track = track;
  event.span = span;
  event.parent = parent;
  event.a = a;
  event.b = b;
  event.detail = std::move(detail);
  {
    const util::MutexLock lock(sink->mutex);
    // Clock read under the track lock: timestamps are monotone PER TRACK by
    // construction, which is exactly what the exporters and check_trace.py
    // assert.
    event.at_us = std::chrono::duration_cast<std::chrono::microseconds>(clock_() - epoch_)
                      .count();
    if (sink->ring.size() < config_.ring_capacity) {
      sink->ring.push_back(std::move(event));
    } else if (!sink->ring.empty()) {
      sink->ring[sink->head] = std::move(event);
      sink->head = (sink->head + 1) % sink->ring.size();
      dropped_.fetch_add(1, std::memory_order_relaxed);
    } else {
      return;  // ring_capacity == 0: keep nothing, count nothing as recorded
    }
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

bool TraceRecorder::sample_round(std::uint32_t track) noexcept {
  if (!enabled(TraceEventKind::kSyscallRound)) return false;
  const std::uint32_t stride = round_sample_.load(std::memory_order_relaxed);
  if (stride == 0) return false;
  Track* sink = track_at(track);
  if (sink == nullptr) return false;
  return sink->sample_counter.fetch_add(1, std::memory_order_relaxed) % stride == 0;
}

std::uint32_t TraceRecorder::histogram(const std::string& name) {
  const util::MutexLock lock(histograms_mutex_);
  const std::uint32_t count = histogram_count_.load(std::memory_order_relaxed);
  for (std::uint32_t id = 0; id < count; ++id) {
    if (histograms_[id]->name == name) return id;
  }
  if (count >= kMaxHistograms) return 0;
  auto fresh = std::make_unique<Histogram>();
  fresh->name = name;
  histograms_[count] = std::move(fresh);
  histogram_count_.store(count + 1, std::memory_order_release);
  return count;
}

void TraceRecorder::observe(std::uint32_t histogram, double value) noexcept {
  if (!config_.enabled) return;
  Histogram* slot = histogram_at(histogram);
  if (slot == nullptr) return;
  Histogram& hist = *slot;
  hist.count.fetch_add(1, std::memory_order_relaxed);
  // Fixed-point nanosecond sum: one fetch_add instead of a CAS loop on a
  // floating sum. Values are microseconds, so the uint64 holds ~584 years.
  const double nanos = value * 1e3;
  hist.sum_nanos.fetch_add(
      nanos <= 0.0 ? 0 : static_cast<std::uint64_t>(nanos), std::memory_order_relaxed);
  const auto bound =
      std::lower_bound(kHistogramBounds.begin(), kHistogramBounds.end(), value);
  const auto bucket = static_cast<std::size_t>(bound - kHistogramBounds.begin());
  hist.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::string> TraceRecorder::track_names() const {
  const std::uint32_t count = track_count_.load(std::memory_order_acquire);
  std::vector<std::string> names;
  names.reserve(count);
  // track_at() never aliases here: every id is < count.
  for (std::uint32_t id = 0; id < count; ++id) names.push_back(track_at(id)->name);
  return names;
}

std::vector<TraceEvent> TraceRecorder::events(std::uint32_t track) const {
  const std::uint32_t count = track_count_.load(std::memory_order_acquire);
  if (track >= count) return {};
  const Track& sink = *track_at(track);  // in-range: no aliasing
  const util::MutexLock lock(sink.mutex);
  std::vector<TraceEvent> out;
  out.reserve(sink.ring.size());
  // Oldest retained first: from head to the end, then the wrapped prefix.
  for (std::size_t i = 0; i < sink.ring.size(); ++i) {
    out.push_back(sink.ring[(sink.head + i) % sink.ring.size()]);
  }
  return out;
}

std::vector<TraceEvent> TraceRecorder::all_events() const {
  const std::uint32_t count = track_count_.load(std::memory_order_acquire);
  std::vector<TraceEvent> out;
  for (std::uint32_t id = 0; id < count; ++id) {
    auto track_events = events(id);
    out.insert(out.end(), std::make_move_iterator(track_events.begin()),
               std::make_move_iterator(track_events.end()));
  }
  return out;
}

std::vector<HistogramSnapshot> TraceRecorder::histograms() const {
  const std::uint32_t count = histogram_count_.load(std::memory_order_acquire);
  std::vector<HistogramSnapshot> out;
  out.reserve(count);
  for (std::uint32_t id = 0; id < count; ++id) {
    const Histogram& hist = *histogram_at(id);  // in-range: no aliasing
    HistogramSnapshot snap;
    snap.name = hist.name;
    snap.count = hist.count.load(std::memory_order_relaxed);
    snap.sum = static_cast<double>(hist.sum_nanos.load(std::memory_order_relaxed)) / 1e3;
    for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
      snap.buckets[i] = hist.buckets[i].load(std::memory_order_relaxed);
    }
    out.push_back(std::move(snap));
  }
  return out;
}

}  // namespace nv::obs
