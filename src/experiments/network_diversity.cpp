#include "experiments/network_diversity.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "cluster/cluster.h"
#include "util/strings.h"
#include "variants/registry.h"

namespace nv::experiments {

namespace {

/// Every failed probe throws this exact message, so all probe quarantines —
/// on every shard — share ONE AlarmSignature: the cross-shard campaign the
/// gossip loop is meant to propagate.
constexpr const char* kProbeSignature = "cluster probe: diversity guess rejected";

/// Same settling contract as the population experiment: rotations resolve on
/// worker threads; a run that cannot settle cannot stay deterministic.
void await_rotations(const fleet::VariantFleet& fleet, std::uint64_t target) {
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    const auto snap = fleet.telemetry().snapshot();
    if (snap.sessions_rotated + snap.rotations_failed >= target) return;
    if (std::chrono::steady_clock::now() > give_up) {
      throw std::runtime_error("cluster experiment: rotations failed to settle");
    }
    std::this_thread::yield();
  }
}

}  // namespace

ClusterCurve run_cluster_experiment(const ClusterExperimentConfig& config) {
  if (config.shards == 0 || config.ticks == 0 || config.defender_rotate_ticks == 0) {
    throw std::invalid_argument("cluster experiment needs shards, ticks, and a sweep period");
  }
  if (config.total_lanes == 0 || config.total_lanes % config.shards != 0) {
    throw std::invalid_argument(
        "total_lanes must split evenly across shards (the sweep holds capacity fixed)");
  }
  if (config.tick <= std::chrono::milliseconds::zero()) {
    throw std::invalid_argument("tick must be positive");
  }
  if (std::find(config.variations.begin(), config.variations.end(),
                config.probed_variation) == config.variations.end()) {
    throw std::invalid_argument("probed_variation must be one of the installed variations");
  }

  // Payload keyspace S: the probed variation's REAL registry-reported
  // entropy, realized by the deterministic every-S-th-probe schedule.
  constexpr unsigned kNVariants = 2;
  auto probed = variants::builtin_registry().make(config.probed_variation);
  if (!probed) {
    throw std::invalid_argument("cluster experiment: " + probed.error());
  }
  const double payload_bits = (*probed)->keyspace_bits(kNVariants);
  const double payload_keys_real = std::exp2(payload_bits);
  if (payload_keys_real < 2.0 || payload_keys_real > static_cast<double>(1U << 20)) {
    throw std::invalid_argument(util::format(
        "probed variation \"%s\" has a keyspace of %.1f bits; the deterministic "
        "attacker needs 1..20 bits to realize its expected cost",
        config.probed_variation.c_str(), payload_bits));
  }
  const unsigned keyspace = static_cast<unsigned>(std::llround(payload_keys_real));

  const unsigned lanes_per_shard = config.total_lanes / config.shards;

  fleet::ManualClock clock;
  cluster::ClusterConfig cc;
  cc.shards = config.shards;
  cc.shard.spec.n_variants = kNVariants;
  cc.shard.spec.variations = config.variations;
  cc.shard.pool_size = lanes_per_shard;
  cc.shard.queue_capacity = std::max<std::size_t>(8, lanes_per_shard * 4);
  cc.shard.seed = config.seed;
  cc.shard.campaign = config.campaign;
  cc.shard.adaptive = config.adaptive;
  cc.shard.clock = clock.fn();
  cc.network_variations = config.network_variations;
  cc.global_key_budget = config.global_key_budget;
  // The cluster's own housekeeping replaces the hand-rolled driver loop:
  // tick() pumps gossip and, every defender_rotate_ticks ticks' worth of
  // manual time, sweeps the tightened shards (sessions + network identity).
  cc.sweep_interval = config.tick * config.defender_rotate_ticks;
  cc.trace = config.trace;
  cluster::FleetCluster cluster(cc);

  // Endpoint-discovery lump: expected scan cost E/2 over the composed
  // network keyspace. Read off the cluster (the factory's composed bits).
  const double network_bits = cluster.snapshot().network_bits;
  if (network_bits > 62.0) {
    throw std::invalid_argument(
        "network keyspace too large for an integral endpoint-discovery lump");
  }
  const std::uint64_t discovery_cost =
      network_bits > 0.0
          ? static_cast<std::uint64_t>(std::llround(std::exp2(network_bits - 1.0)))
          : 0;

  ClusterCurve curve;
  curve.shards = config.shards;
  curve.lanes_per_shard = lanes_per_shard;
  curve.probed_variation = config.probed_variation;
  curve.payload_bits = payload_bits;
  curve.payload_keys = keyspace;
  curve.network_bits = network_bits;
  curve.endpoint_discovery_cost = discovery_cost;

  const unsigned total = config.total_lanes;
  const auto benign_job = [](core::NVariantSystem&) -> core::RunReport {
    core::RunReport report;
    report.completed = true;
    return report;
  };

  // Attacker state, all per shard: held lanes, last-seen fingerprints, the
  // target cursor (the attacker chooses its target: every request goes to
  // the lane `rr` names, via submit_to), the payload probe serial (draw
  // spaces are independent, so the S-schedule restarts per shard), and the
  // network identity it last paid to discover.
  std::vector<std::vector<bool>> compromised(config.shards,
                                             std::vector<bool>(lanes_per_shard, false));
  std::vector<std::vector<std::string>> fingerprints;
  fingerprints.reserve(config.shards);
  for (unsigned s = 0; s < config.shards; ++s) {
    fingerprints.push_back(cluster.shard(s).live_fingerprints());
  }
  std::vector<std::uint64_t> probe_serial(config.shards, 0);
  std::vector<unsigned> rr(config.shards, 0);
  std::vector<std::string> known_endpoint(config.shards);  // "" = never scanned

  // Gossip pre-warning classification: a shard is pre-warned when its
  // posture tightened (locally or via gossip) while it had ZERO quarantines.
  // Each shard classifies exactly once, at its first tighten-or-quarantine.
  std::vector<bool> classified(config.shards, false);

  const auto held_count = [&] {
    std::uint64_t held = 0;
    for (const auto& shard : compromised) {
      held += static_cast<std::uint64_t>(std::count(shard.begin(), shard.end(), true));
    }
    return held;
  };

  const auto reconcile = [&](unsigned s) {
    const auto live = cluster.shard(s).live_fingerprints();
    for (unsigned lane = 0; lane < lanes_per_shard; ++lane) {
      if (live[lane] != fingerprints[s][lane]) compromised[s][lane] = false;
    }
    fingerprints[s] = live;
  };

  const auto classify = [&] {
    for (unsigned s = 0; s < config.shards; ++s) {
      if (classified[s]) continue;
      const auto snap = cluster.shard(s).telemetry().snapshot();
      const bool tightened = snap.policy_tightened + snap.remote_campaigns > 0;
      if (tightened && snap.sessions_quarantined == 0) {
        classified[s] = true;
        ++curve.pre_warned_shards;
      } else if (snap.sessions_quarantined > 0) {
        classified[s] = true;  // probed before any warning reached it
      }
    }
  };

  unsigned attacker_shard = 0;
  std::uint64_t elapsed_ms = 0;

  for (unsigned t = 1; t <= config.ticks; ++t) {
    clock.advance(config.tick);
    elapsed_ms += static_cast<std::uint64_t>(config.tick.count());

    // Cluster housekeeping: pump due gossip, enforce rotation deadlines, and
    // — when the sweep interval elapsed — re-diversify every TIGHTENED shard
    // (sessions and network identity) so held footholds die and the attacker
    // must pay endpoint discovery again. The sweep only FLAGS session
    // rotations; settle each swept shard before the attacker reads
    // fingerprints, exactly as the hand-rolled loop did.
    const cluster::TickReport housekeeping = cluster.tick();
    for (const auto& sweep : housekeeping.sweeps) {
      await_rotations(cluster.shard(sweep.shard),
                      sweep.rotations_before + sweep.lanes_flagged);
      reconcile(sweep.shard);
    }

    // Attacker: probe while any lane anywhere remains uncontrolled.
    for (unsigned p = 0; p < config.probes_per_tick; ++p) {
      if (held_count() == total) break;  // full cluster control is free to keep
      // Advance past fully-controlled shards (the per-compromise advance
      // below also lands here when the next shard is already owned).
      while (std::find(compromised[attacker_shard].begin(), compromised[attacker_shard].end(),
                       false) == compromised[attacker_shard].end()) {
        attacker_shard = (attacker_shard + 1) % config.shards;
      }
      const unsigned s = attacker_shard;

      // First contact with this shard's CURRENT network epoch: pay the scan.
      if (discovery_cost > 0) {
        const std::string endpoint = cluster.network_fingerprint(s);
        if (known_endpoint[s] != endpoint) {
          known_endpoint[s] = endpoint;
          ++curve.endpoint_discoveries;
          curve.endpoint_probes += discovery_cost;
        }
      }

      // Benign filler walks the target cursor past owned sessions.
      while (compromised[s][rr[s]]) {
        (void)cluster.shard(s).submit_to(rr[s], benign_job).get();
        rr[s] = (rr[s] + 1) % lanes_per_shard;
      }
      const unsigned target = rr[s];
      rr[s] = (rr[s] + 1) % lanes_per_shard;

      ++curve.payload_probes;
      ++probe_serial[s];
      if (probe_serial[s] % keyspace == 0) {
        // Lucky guess: clean traffic, silent foothold — and the attacker
        // moves on to the NEXT shard, where it must start over against an
        // independent draw space (and possibly an undiscovered endpoint).
        (void)cluster.shard(s).submit_to(target, benign_job).get();
        compromised[s][target] = true;
        ++curve.silent_compromises;
        attacker_shard = (attacker_shard + 1) % config.shards;
      } else {
        // Wrong guess: a real divergence quarantine + respawn on shard s.
        // The alert (if this crossed the threshold) publishes on the gossip
        // bus and — at delay 0 — tightens every other shard before .get()
        // returns.
        (void)cluster.shard(s)
            .submit_to(target,
                       [](core::NVariantSystem&) -> core::RunReport {
                         throw std::runtime_error(kProbeSignature);
                       })
            .get();
        reconcile(s);
      }
      classify();
    }

    const std::uint64_t held = held_count();
    curve.compromised_lane_ticks += held;
    if (t % std::max(1U, config.timeline_stride) == 0 || t == config.ticks) {
      const auto snap = cluster.snapshot();
      std::uint64_t rotations = 0;
      for (const auto& view : snap.shard_views) rotations += view.fleet.sessions_rotated;
      ClusterTimelinePoint point;
      point.t_ms = elapsed_ms;
      point.compromised_fraction = static_cast<double>(held) / total;
      point.probes = curve.payload_probes + curve.endpoint_probes;
      point.endpoint_discoveries = curve.endpoint_discoveries;
      point.rotations = rotations;
      curve.timeline.push_back(point);
    }
  }

  const auto snap = cluster.snapshot();
  for (const auto& view : snap.shard_views) {
    curve.quarantines += view.fleet.sessions_quarantined;
    curve.rotations += view.fleet.sessions_rotated;
    curve.campaign_alerts += view.fleet.campaign_alerts;
    curve.policy_tightened += view.fleet.policy_tightened;
  }
  curve.remote_campaigns = snap.remote_campaigns_applied;
  curve.network_rotations = snap.network_rotations;
  curve.gossip_published = snap.gossip_published;
  curve.gossip_delivered = snap.gossip_delivered;
  curve.keys_total = snap.keys_total;
  curve.keys_remaining = snap.keys_remaining;
  curve.probes = curve.payload_probes + curve.endpoint_probes;
  curve.mean_compromised_fraction =
      static_cast<double>(curve.compromised_lane_ticks) /
      (static_cast<double>(config.ticks) * total);
  curve.attacker_cost =
      static_cast<double>(curve.probes) /
      static_cast<double>(std::max<std::uint64_t>(1, curve.compromised_lane_ticks));
  cluster.shutdown();
  return curve;
}

namespace {

std::string curve_to_json(const ClusterCurve& curve, const std::string& indent) {
  std::string json = indent + "{\n";
  const std::string in = indent + "  ";
  const auto u64 = [&](const char* key, std::uint64_t value) {
    return in + util::format("\"%s\": %llu,\n", key, static_cast<unsigned long long>(value));
  };
  json += u64("shards", curve.shards);
  json += u64("lanes_per_shard", curve.lanes_per_shard);
  json += in + util::format("\"probed_variation\": \"%s\",\n", curve.probed_variation.c_str());
  json += in + util::format("\"payload_bits\": %.6f,\n", curve.payload_bits);
  json += u64("payload_keys", curve.payload_keys);
  json += in + util::format("\"network_bits\": %.6f,\n", curve.network_bits);
  json += u64("endpoint_discovery_cost", curve.endpoint_discovery_cost);
  json += u64("endpoint_discoveries", curve.endpoint_discoveries);
  json += u64("endpoint_probes", curve.endpoint_probes);
  json += u64("payload_probes", curve.payload_probes);
  json += u64("probes", curve.probes);
  json += u64("silent_compromises", curve.silent_compromises);
  json += u64("compromised_lane_ticks", curve.compromised_lane_ticks);
  json += in + util::format("\"mean_compromised_fraction\": %.6f,\n",
                            curve.mean_compromised_fraction);
  json += in + util::format("\"attacker_cost\": %.6f,\n", curve.attacker_cost);
  json += u64("quarantines", curve.quarantines);
  json += u64("rotations", curve.rotations);
  json += u64("network_rotations", curve.network_rotations);
  json += u64("campaign_alerts", curve.campaign_alerts);
  json += u64("remote_campaigns", curve.remote_campaigns);
  json += u64("policy_tightened", curve.policy_tightened);
  json += u64("pre_warned_shards", curve.pre_warned_shards);
  json += u64("gossip_published", curve.gossip_published);
  json += u64("gossip_delivered", curve.gossip_delivered);
  json += u64("keys_total", curve.keys_total);
  json += u64("keys_remaining", curve.keys_remaining);
  json += in + "\"timeline\": [";
  for (std::size_t i = 0; i < curve.timeline.size(); ++i) {
    const ClusterTimelinePoint& point = curve.timeline[i];
    json += i == 0 ? "\n" : ",\n";
    json += in + "  " +
            util::format("{\"t_ms\": %llu, \"compromised_fraction\": %.4f, "
                         "\"probes\": %llu, \"endpoint_discoveries\": %llu, "
                         "\"rotations\": %llu}",
                         static_cast<unsigned long long>(point.t_ms),
                         point.compromised_fraction,
                         static_cast<unsigned long long>(point.probes),
                         static_cast<unsigned long long>(point.endpoint_discoveries),
                         static_cast<unsigned long long>(point.rotations));
  }
  json += curve.timeline.empty() ? "]\n" : "\n" + in + "]\n";
  json += indent + "}";
  return json;
}

}  // namespace

std::string cluster_curves_to_json(const ClusterExperimentConfig& base,
                                   const std::vector<ClusterCurve>& grid, bool quick) {
  std::string json = "{\n";
  json += "  \"schema\": \"network_diversity/v1\",\n";
  json += util::format("  \"quick\": %s,\n", quick ? "true" : "false");
  json += "  \"config\": {\n";
  json += util::format("    \"total_lanes\": %u,\n", base.total_lanes);
  json += "    \"variations\": [";
  for (std::size_t i = 0; i < base.variations.size(); ++i) {
    json += util::format("%s\"%s\"", i == 0 ? "" : ", ", base.variations[i].c_str());
  }
  json += "],\n";
  json += util::format("    \"probed_variation\": \"%s\",\n", base.probed_variation.c_str());
  json += "    \"network_variations\": [";
  for (std::size_t i = 0; i < base.network_variations.size(); ++i) {
    json += util::format("%s\"%s\"", i == 0 ? "" : ", ", base.network_variations[i].c_str());
  }
  json += "],\n";
  json += util::format("    \"probes_per_tick\": %u,\n", base.probes_per_tick);
  json += util::format("    \"tick_ms\": %lld,\n", static_cast<long long>(base.tick.count()));
  json += util::format("    \"ticks\": %u,\n", base.ticks);
  json += util::format("    \"defender_rotate_ticks\": %u,\n", base.defender_rotate_ticks);
  json += util::format("    \"global_key_budget\": %llu,\n",
                       static_cast<unsigned long long>(base.global_key_budget));
  json += util::format("    \"seed\": \"0x%llX\"\n",
                       static_cast<unsigned long long>(base.seed));
  json += "  },\n";
  json += "  \"grid\": [";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    json += i == 0 ? "\n" : ",\n";
    json += curve_to_json(grid[i], "    ");
  }
  json += grid.empty() ? "]\n" : "\n  ]\n";
  json += "}\n";
  return json;
}

}  // namespace nv::experiments
