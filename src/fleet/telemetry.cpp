#include "fleet/telemetry.h"

#include "util/strings.h"

namespace nv::fleet {

FleetTelemetry::FleetTelemetry(unsigned lanes) {
  lanes_.reserve(lanes == 0 ? 1 : lanes);
  for (unsigned i = 0; i < (lanes == 0 ? 1 : lanes); ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
}

void FleetTelemetry::record_latency(unsigned lane, double latency_us) {
  Lane& target = *lanes_[lane % lanes_.size()];
  const util::MutexLock lock(target.mutex);
  target.latencies_us.add(latency_us);
}

FleetSnapshot FleetTelemetry::snapshot() const {
  FleetSnapshot snap;
  snap.jobs_submitted = jobs_submitted_.load(std::memory_order_relaxed);
  snap.jobs_rejected = jobs_rejected_.load(std::memory_order_relaxed);
  snap.jobs_completed = jobs_completed_.load(std::memory_order_relaxed);
  snap.jobs_alarmed = jobs_alarmed_.load(std::memory_order_relaxed);
  snap.job_errors = job_errors_.load(std::memory_order_relaxed);
  snap.jobs_abandoned = jobs_abandoned_.load(std::memory_order_relaxed);
  snap.jobs_shed = jobs_shed_.load(std::memory_order_relaxed);
  snap.jobs_deadline_dropped = jobs_deadline_dropped_.load(std::memory_order_relaxed);
  snap.admission_blocked_us = admission_blocked_us_.load(std::memory_order_relaxed);
  snap.queue_high_watermark = queue_high_watermark_.load(std::memory_order_relaxed);
  snap.sessions_quarantined = sessions_quarantined_.load(std::memory_order_relaxed);
  snap.sessions_respawned = sessions_respawned_.load(std::memory_order_relaxed);
  snap.sessions_rotated = sessions_rotated_.load(std::memory_order_relaxed);
  snap.rotations_failed = rotations_failed_.load(std::memory_order_relaxed);
  snap.campaign_alerts = campaign_alerts_.load(std::memory_order_relaxed);
  snap.remote_campaigns = remote_campaigns_.load(std::memory_order_relaxed);
  snap.policy_tightened = policy_tightened_.load(std::memory_order_relaxed);
  snap.policy_decayed = policy_decayed_.load(std::memory_order_relaxed);
  snap.syscall_rounds = syscall_rounds_.load(std::memory_order_relaxed);
  snap.keys_total = keys_total_.load(std::memory_order_relaxed);
  snap.keys_remaining = keys_remaining_.load(std::memory_order_relaxed);
  {
    const util::MutexLock lock(trace_mutex_);
    if (trace_) snap.trace_drops = trace_->dropped();
  }

  util::Samples merged;
  for (const auto& lane : lanes_) {
    const util::MutexLock lock(lane->mutex);
    merged.merge(lane->latencies_us);
  }
  snap.latency_count = merged.count();
  snap.latency_mean_us = merged.mean();
  snap.latency_p50_us = merged.percentile(50.0);
  snap.latency_p95_us = merged.percentile(95.0);
  snap.latency_p99_us = merged.percentile(99.0);
  return snap;
}

std::string FleetSnapshot::describe() const {
  const std::string keyspace =
      keys_total == 0 ? std::string("untracked")
                      : util::format("%llu of %llu keys remaining",
                                     static_cast<unsigned long long>(keys_remaining),
                                     static_cast<unsigned long long>(keys_total));
  return util::format(
      "jobs: %llu submitted, %llu completed, %llu alarmed, %llu errored, %llu rejected, "
      "%llu abandoned | "
      "admission: %llu shed, %llu deadline-dropped, %llu us blocked, watermark %llu | "
      "sessions: %llu quarantined, %llu respawned, %llu rotated (%llu rotations failed) | "
      "keyspace: %s | "
      "%llu campaign alerts (%llu remote) | adaptive: %llu tightened, %llu decayed | "
      "%llu syscall rounds | "
      "latency us: p50 %.0f, p95 %.0f, p99 %.0f (n=%zu)",
      static_cast<unsigned long long>(jobs_submitted),
      static_cast<unsigned long long>(jobs_completed),
      static_cast<unsigned long long>(jobs_alarmed),
      static_cast<unsigned long long>(job_errors),
      static_cast<unsigned long long>(jobs_rejected),
      static_cast<unsigned long long>(jobs_abandoned),
      static_cast<unsigned long long>(jobs_shed),
      static_cast<unsigned long long>(jobs_deadline_dropped),
      static_cast<unsigned long long>(admission_blocked_us),
      static_cast<unsigned long long>(queue_high_watermark),
      static_cast<unsigned long long>(sessions_quarantined),
      static_cast<unsigned long long>(sessions_respawned),
      static_cast<unsigned long long>(sessions_rotated),
      static_cast<unsigned long long>(rotations_failed), keyspace.c_str(),
      static_cast<unsigned long long>(campaign_alerts),
      static_cast<unsigned long long>(remote_campaigns),
      static_cast<unsigned long long>(policy_tightened),
      static_cast<unsigned long long>(policy_decayed),
      static_cast<unsigned long long>(syscall_rounds), latency_p50_us, latency_p95_us,
      latency_p99_us, latency_count);
}

}  // namespace nv::fleet
