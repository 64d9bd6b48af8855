#include "cluster/cluster.h"

#include <limits>
#include <optional>
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
      budget_(config_.global_key_budget, config_.shards == 0 ? 1 : config_.shards) {
  if (config_.shards == 0) throw std::invalid_argument("cluster needs at least one shard");
  const std::uint64_t base_seed = resolve_base_seed(config_.shard.seed);
  last_sweep_ = clock_();

  trace_ = config_.trace;
  if (trace_) {
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
    // (see VariantFleet::apply_remote_campaign), so gossip cannot loop. The
    // hook may index fleets_: an alert needs a job, jobs arrive only after
    // this constructor returns, and fleets_ is reserved above, so no alert
    // sees the vector while it grows.
    shard_config.on_campaign = [this, index,
                                user = config_.shard.on_campaign](const fleet::CampaignAlert& alert) {
      gossip(index, alert);
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
}

FleetCluster::~FleetCluster() { shutdown(); }

void FleetCluster::shutdown() {
  {
    const util::MutexLock lock(shutdown_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  // Shard workers gossip into every shard; they must all be joined before
  // this object starts tearing anything else down.
  for (auto& fleet : fleets_) fleet->shutdown();
}

void FleetCluster::gossip(unsigned origin, const fleet::CampaignAlert& alert) {
  if (trace_) {
    // Carries the origin shard's alert span: the publish is a hop on the
    // alert's causal chain, not a new root.
    trace_->record(gossip_track_, obs::TraceEventKind::kGossipPublish, 0, alert.trace_span,
                   origin, alert.id);
  }
  telemetry_.note_gossip_published();
  for (unsigned index = 0; index < fleets_.size(); ++index) {
    if (index == origin) continue;
    if (trace_) {
      trace_->record(gossip_track_, obs::TraceEventKind::kGossipDeliver, 0, alert.trace_span,
                     origin, index);
    }
    fleets_[index]->apply_remote_campaign(alert);
    telemetry_.note_gossip_delivered();
  }
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
    trace_->record(tick_track_, obs::TraceEventKind::kClusterTick, 0, 0, report.tick, 0,
                   report.swept ? util::format("swept %zu shards", report.sweeps.size())
                                : std::string{});
  }
  return report;
}

ClusterSnapshot FleetCluster::snapshot() const {
  ClusterSnapshot snap;
  snap.shards = fleets_.size();
  snap.network_rotations = telemetry_.network_rotations();
  snap.gossip_published = telemetry_.gossip_published();
  snap.gossip_delivered = telemetry_.gossip_delivered();
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
