#include "cluster/cluster.h"

#include <random>
#include <stdexcept>
#include <utility>

#include "util/strings.h"
#include "variants/registry.h"

namespace nv::cluster {

namespace {

std::uint64_t resolve_base_seed(std::optional<std::uint64_t> requested) {
  if (requested.has_value()) return *requested;
  std::random_device entropy;
  return (static_cast<std::uint64_t>(entropy()) << 32) | entropy();
}

}  // namespace

FleetCluster::FleetCluster(ClusterConfig config)
    : config_(std::move(config)),
      clock_(fleet::resolve_clock(config_.shard.clock)),
      budget_(config_.global_key_budget, config_.shards == 0 ? 1 : config_.shards),
      gossip_(config_.gossip, config_.shard.clock),
      router_(config_.router) {
  if (config_.shards == 0) throw std::invalid_argument("cluster needs at least one shard");
  const std::uint64_t base_seed = resolve_base_seed(config_.shard.seed);
  last_sweep_ = clock_();

  trace_ = config_.trace;
  if (trace_) {
    router_track_ = trace_->track("cluster.router");
    gossip_track_ = trace_->track("cluster.gossip");
    tick_track_ = trace_->track("cluster.tick");
  }

  fleets_.reserve(config_.shards);
  network_factories_.reserve(config_.shards);
  network_identities_.reserve(config_.shards);
  for (unsigned index = 0; index < config_.shards; ++index) {
    fleet::FleetConfig shard_config = config_.shard;
    shard_config.seed = base_seed + 2ULL * index;
    shard_config.spec.max_unique_keys = budget_.allocation(index);
    shard_config.trace = trace_;
    shard_config.trace_scope = util::format("shard%u", index);
    // Locally-raised alerts gossip out; receivers apply without re-publishing
    // (see VariantFleet::apply_remote_campaign), so the bus cannot loop.
    shard_config.on_campaign = [this, index,
                                user = config_.shard.on_campaign](const fleet::CampaignAlert& alert) {
      if (trace_) {
        // Carries the origin shard's alert span: the publish is a hop on the
        // alert's causal chain, not a new root.
        trace_->record(gossip_track_, obs::TraceEventKind::kGossipPublish, 0,
                       alert.trace_span, index, alert.id);
      }
      gossip_.publish(index, alert);
      if (user) user(alert);
    };
    fleets_.push_back(std::make_unique<fleet::VariantFleet>(std::move(shard_config)));

    // The shard's network identity is a session over the network variations,
    // drawn from the shard's own factory: the uniqueness ledger guarantees a
    // rotation never re-presents an endpoint this shard already exposed, and
    // keyspace_bits() composes through the same DiversitySuite path as every
    // other variation.
    fleet::SessionSpec network_spec;
    network_spec.n_variants = config_.shard.spec.n_variants;
    network_spec.variations = config_.network_variations;
    network_spec.randomize = true;
    auto factory = std::make_unique<fleet::SessionFactory>(
        network_spec, base_seed + 2ULL * index + 1, variants::builtin_registry());
    if (config_.network_variations.empty()) {
      network_identities_.push_back("static");
    } else {
      auto identity = factory->make_session();
      if (!identity) {
        throw std::invalid_argument("cluster network identity: " + identity.error());
      }
      network_bits_ = factory->keyspace().bits;
      network_identities_.push_back(identity->diversity_key);
    }
    network_factories_.push_back(std::move(factory));
  }

  // Subscribe in shard order AFTER every fleet exists: subscriber index ==
  // shard index, and gossip delivery order is ascending shard order.
  for (unsigned index = 0; index < config_.shards; ++index) {
    gossip_.subscribe([this, index](unsigned origin, const fleet::CampaignAlert& alert) {
      if (trace_) {
        trace_->record(gossip_track_, obs::TraceEventKind::kGossipDeliver, 0,
                       alert.trace_span, origin, index);
      }
      fleets_[index]->apply_remote_campaign(alert);
    });
  }

  // Router health cache: sentinel epochs force a full first sample.
  health_cache_.resize(config_.shards);
  health_epoch_seen_.assign(config_.shards, std::numeric_limits<std::uint64_t>::max());
}

FleetCluster::~FleetCluster() { shutdown(); }

void FleetCluster::shutdown() {
  {
    const util::MutexLock lock(shutdown_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  // Shard workers publish gossip; they must all be joined before this object
  // starts tearing anything else down.
  for (auto& fleet : fleets_) fleet->shutdown();
}

std::vector<ShardHealth> FleetCluster::sample_health() const {
  // Per-submission cost is O(shards) ATOMIC READS, not O(shards) mutexed
  // walks: the slow fields (accepting bit, keyspace ledger — each behind its
  // fleet's mutexes) are re-sampled only when that shard's health_epoch()
  // moved; queue_depth, the one field that changes per job, always comes
  // from the lock-free hint.
  const util::MutexLock lock(health_mutex_);
  for (unsigned index = 0; index < fleets_.size(); ++index) {
    const std::uint64_t epoch = fleets_[index]->health_epoch();
    if (health_epoch_seen_[index] != epoch) {
      health_epoch_seen_[index] = epoch;
      const fleet::KeyspaceAccount account = fleets_[index]->keyspace();
      health_cache_[index].accepting = fleets_[index]->accepting();
      health_cache_[index].exhausted = account.exhausted();
      health_cache_[index].keys_remaining = account.keys_remaining;
      health_cache_[index].keys_total = account.keys_total;
      telemetry_.note_health_resample();
    }
    health_cache_[index].queue_depth = fleets_[index]->queue_depth_hint();
    // Like queue depth, shedding moves per-job: always refresh from the
    // lock-free hint rather than waiting for an epoch bump.
    health_cache_[index].jobs_shed = fleets_[index]->jobs_shed_hint();
  }
  return health_cache_;
}

std::future<fleet::JobOutcome> FleetCluster::submit(fleet::FleetJob job) {
  const auto health = sample_health();
  const auto target = router_.route(health);
  if (!target.has_value()) {
    telemetry_.note_unroutable();
    if (trace_) {
      trace_->record(router_track_, obs::TraceEventKind::kRouteDecision, 0, 0,
                     fleets_.size(), 0, "unroutable");
    }
    throw std::runtime_error("cluster has no accepting shard");
  }
  if (trace_) {
    trace_->record(router_track_, obs::TraceEventKind::kRouteDecision, 0, 0, *target,
                   health[*target].queue_depth);
  }
  auto future = fleets_[*target]->submit(std::move(job));
  telemetry_.note_routed();
  return future;
}

std::optional<std::future<fleet::JobOutcome>> FleetCluster::try_submit(fleet::FleetJob job) {
  // Graceful degradation: walk the ranking so a refusal (full queue, raced a
  // drain) falls through to the next-best shard instead of failing the job.
  const auto health = sample_health();
  for (const unsigned index : router_.ranked(health)) {
    if (auto future = fleets_[index]->try_submit(job)) {
      if (trace_) {
        trace_->record(router_track_, obs::TraceEventKind::kRouteDecision, 0, 0, index,
                       health[index].queue_depth);
      }
      telemetry_.note_routed();
      return future;
    }
  }
  telemetry_.note_unroutable();
  if (trace_) {
    trace_->record(router_track_, obs::TraceEventKind::kRouteDecision, 0, 0, fleets_.size(),
                   0, "unroutable");
  }
  return std::nullopt;
}

std::future<fleet::JobOutcome> FleetCluster::submit_to(unsigned shard, fleet::FleetJob job) {
  return fleets_.at(shard)->submit(std::move(job));
}

fleet::DrainReport FleetCluster::drain_shard(unsigned index,
                                             std::chrono::milliseconds deadline) {
  return fleets_.at(index)->shutdown(deadline);
}

std::string FleetCluster::network_fingerprint(unsigned index) const {
  const util::MutexLock lock(network_mutex_);
  return network_identities_.at(index);
}

bool FleetCluster::rotate_shard_network(unsigned index) {
  const util::MutexLock lock(network_mutex_);
  if (config_.network_variations.empty()) return false;  // static network: nothing to rotate
  auto identity = network_factories_.at(index)->make_session();
  if (!identity) return false;  // endpoint space exhausted for this shard
  network_identities_[index] = identity->diversity_key;
  telemetry_.note_network_rotation();
  return true;
}

TickReport FleetCluster::tick() {
  const util::MutexLock lock(tick_mutex_);
  TickReport report;
  report.tick = ++tick_count_;
  report.gossip_delivered = gossip_.pump();
  // Tell every shard the clock moved: wakes deadline-bounded drains.
  for (auto& member : fleets_) member->notify_time_advanced();

  if (config_.sweep_interval > std::chrono::milliseconds::zero()) {
    const auto now = clock_();
    if (now - last_sweep_ >= config_.sweep_interval) {
      last_sweep_ = now;
      report.swept = true;
      for (unsigned index = 0; index < fleets_.size(); ++index) {
        // Sweep only shards under a TIGHTENED posture: re-diversifying a
        // quiet shard burns finite keyspace for nothing.
        const auto* adaptive = fleets_[index]->adaptive();
        if (adaptive == nullptr || !adaptive->tightened()) continue;
        ShardSweep sweep;
        sweep.shard = index;
        const auto before = fleets_[index]->telemetry().snapshot();
        sweep.rotations_before = before.sessions_rotated + before.rotations_failed;
        sweep.lanes_flagged = fleets_[index]->rotate_fleet();
        sweep.network_rotated = rotate_shard_network(index);
        report.sweeps.push_back(sweep);
      }
    }
  }
  if (trace_) {
    trace_->record(tick_track_, obs::TraceEventKind::kClusterTick, 0, 0, report.tick,
                   report.gossip_delivered,
                   report.swept ? util::format("swept %zu shards", report.sweeps.size())
                                : std::string{});
  }
  return report;
}

ClusterSnapshot FleetCluster::snapshot() const {
  ClusterSnapshot snap;
  snap.shards = fleets_.size();
  snap.jobs_routed = telemetry_.jobs_routed();
  snap.jobs_unroutable = telemetry_.jobs_unroutable();
  snap.network_rotations = telemetry_.network_rotations();
  snap.health_resamples = telemetry_.health_resamples();
  snap.gossip_published = gossip_.published();
  snap.gossip_delivered = gossip_.delivered();
  snap.gossip_pending = gossip_.pending();
  snap.network_bits = network_bits_;

  // Specs past ~63 bits saturate their shard ledger at uint64 max; the sums
  // must saturate too rather than wrap.
  const auto saturating_add = [](std::uint64_t a, std::uint64_t b) {
    return a > std::numeric_limits<std::uint64_t>::max() - b
               ? std::numeric_limits<std::uint64_t>::max()
               : a + b;
  };
  for (unsigned index = 0; index < fleets_.size(); ++index) {
    const auto& member = *fleets_[index];
    const fleet::KeyspaceAccount account = member.keyspace();
    ShardSnapshot view;
    view.shard = index;
    view.accepting = member.accepting();
    view.exhausted = account.exhausted();
    view.network_fingerprint = network_fingerprint(index);
    view.shard_keys_total = account.keys_total;
    view.shard_keys_remaining = account.keys_remaining;
    view.fleet = member.telemetry().snapshot();

    snap.shards_accepting += view.accepting ? 1 : 0;
    snap.shards_exhausted += view.exhausted ? 1 : 0;
    snap.remote_campaigns_applied += view.fleet.remote_campaigns;
    snap.keys_total = saturating_add(snap.keys_total, view.shard_keys_total);
    snap.keys_remaining = saturating_add(snap.keys_remaining, view.shard_keys_remaining);
    if (index == 0) snap.shard_spec_bits = account.bits;
    snap.shard_views.push_back(std::move(view));
  }
  snap.cluster_bits =
      static_cast<double>(snap.shards) * (snap.shard_spec_bits + snap.network_bits);
  return snap;
}

}  // namespace nv::cluster
