#include "experiments/population_curves.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "fleet/fleet.h"
#include "util/strings.h"
#include "variants/registry.h"

namespace nv::experiments {

namespace {

/// Every failed probe throws this exact message, so all probe quarantines
/// share ONE AlarmSignature — the coordinated campaign the correlator (and
/// the adaptive scenario) is meant to see.
constexpr const char* kProbeSignature = "population probe: diversity guess rejected";

/// A rotation's draws happen at the order, but each lane's worker installs
/// its own; park until every named lane has either rotated or failed to
/// draw. A timeout means the run can no longer be deterministic (installs
/// still in flight would race the fingerprint reads), so it throws rather
/// than silently degrading the byte-identical-replay contract — a healthy
/// fleet settles in microseconds.
void await_rotations(const fleet::VariantFleet& fleet, std::uint64_t target) {
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    const auto snap = fleet.telemetry().snapshot();
    if (snap.sessions_rotated + snap.rotations_failed >= target) return;
    if (std::chrono::steady_clock::now() > give_up) {
      throw std::runtime_error("population experiment: rotations failed to settle");
    }
    std::this_thread::yield();
  }
}

}  // namespace

PopulationCurve run_population_experiment(const PopulationExperimentConfig& config) {
  if (config.pool_size == 0 || config.ticks == 0) {
    throw std::invalid_argument("population experiment needs a pool and ticks");
  }
  if (config.tick <= std::chrono::milliseconds::zero() ||
      (config.rediversify_interval.count() != 0 &&
       config.rediversify_interval.count() % config.tick.count() != 0)) {
    // The rotation check runs once per tick; an interval the tick does not
    // divide would silently rotate slower than the rate the curve reports.
    throw std::invalid_argument(
        "rediversify_interval must be a positive multiple of tick (or zero)");
  }
  if (std::find(config.variations.begin(), config.variations.end(),
                config.attacker.probed_variation) == config.variations.end()) {
    throw std::invalid_argument("probed_variation must be one of the installed variations");
  }

  // The attacker's keyspace S is the REAL, registry-reported entropy of the
  // probed variation — not an analytic model parameter. 2^bits must be small
  // enough for the deterministic every-S-th-probe schedule to realize it.
  constexpr unsigned kNVariants = 2;
  auto probed = variants::builtin_registry().make(config.attacker.probed_variation);
  if (!probed) {
    throw std::invalid_argument("population experiment: " + probed.error());
  }
  const double keyspace_bits = (*probed)->keyspace_bits(kNVariants);
  const double keys = std::exp2(keyspace_bits);
  if (keys < 2.0 || keys > static_cast<double>(1U << 20)) {
    throw std::invalid_argument(util::format(
        "probed variation \"%s\" has a keyspace of %.1f bits; the deterministic "
        "attacker needs 1..20 bits to realize its expected cost",
        config.attacker.probed_variation.c_str(), keyspace_bits));
  }
  const unsigned keyspace = static_cast<unsigned>(std::llround(keys));

  fleet::ManualClock clock;
  fleet::FleetConfig fc;
  fc.spec.n_variants = kNVariants;
  fc.spec.variations = config.variations;
  fc.pool_size = config.pool_size;
  fc.queue_capacity = std::max<std::size_t>(8, config.pool_size * 4);
  fc.seed = config.seed;
  fc.campaign = config.campaign;
  fc.adaptive = config.adaptive_config;
  fc.adaptive.enabled = config.adaptive;
  fc.clock = clock.fn();
  fleet::VariantFleet fleet(fc);

  const unsigned pool = fleet.pool_size();
  const auto interval_ms =
      static_cast<std::uint64_t>(config.rediversify_interval.count());
  PopulationCurve curve;
  curve.rediversify_interval_ms = interval_ms;
  curve.rediversify_rate_hz =
      interval_ms == 0 ? 0.0 : 1000.0 / static_cast<double>(interval_ms);
  curve.probed_variation = config.attacker.probed_variation;
  curve.keyspace_bits = keyspace_bits;
  curve.keyspace_keys = keyspace;

  // Attacker state: which lanes it silently controls, and its deterministic
  // expected-cost probe schedule (every S-th probe is the lucky guess).
  // The attacker chooses its target: `rr` walks the sessions in turn, and
  // every request goes to the session it names (submit_to), so a fixed
  // config replays byte-identically (the CI curve-diffing contract). It
  // skips the sessions it already controls by weaving in benign filler
  // traffic and aims probes only at uncontrolled sessions — it never burns
  // its own footholds.
  std::vector<bool> compromised(pool, false);
  std::vector<std::string> fingerprints = fleet.live_fingerprints();
  std::uint64_t probe_serial = 0;
  unsigned rr = 0;
  std::uint64_t elapsed_ms = 0;

  const auto benign_job = [](core::NVariantSystem&) -> core::RunReport {
    core::RunReport report;
    report.completed = true;
    return report;
  };

  // Any lane whose live fingerprint moved was re-diversified out from under
  // the attacker (probe respawn, periodic rotation, campaign escalation):
  // its foothold is gone. Called right after every fleet-changing event so a
  // foothold gained LATER in the same tick is not mistaken for a stale one.
  const auto reconcile = [&] {
    const auto live = fleet.live_fingerprints();
    for (unsigned lane = 0; lane < pool; ++lane) {
      if (live[lane] != fingerprints[lane]) compromised[lane] = false;
    }
    fingerprints = live;
  };

  for (unsigned t = 1; t <= config.ticks; ++t) {
    clock.advance(config.tick);
    elapsed_ms += static_cast<std::uint64_t>(config.tick.count());

    // Defender: periodic fleet-wide re-diversification at the swept rate.
    if (interval_ms > 0 && elapsed_ms % interval_ms == 0) {
      const auto before = fleet.telemetry().snapshot();
      const std::size_t flagged = fleet.rotate_fleet();
      await_rotations(fleet,
                      before.sessions_rotated + before.rotations_failed + flagged);
      reconcile();
    }
    // Adaptive housekeeping runs on job completions; an attacker lull would
    // starve it, so the experiment loop polls once per tick as an operator
    // would — and settles any heightened-posture rotation it fired.
    if (config.adaptive) {
      const auto before = fleet.telemetry().snapshot();
      const std::size_t flagged = fleet.poll_adaptive();
      if (flagged > 0) {
        await_rotations(fleet,
                        before.sessions_rotated + before.rotations_failed + flagged);
        reconcile();
      }
    }

    // Attacker: probe the fleet while any session remains uncontrolled.
    for (unsigned p = 0; p < config.attacker.probes_per_tick; ++p) {
      if (std::find(compromised.begin(), compromised.end(), false) == compromised.end()) {
        break;  // full control: holding it costs nothing
      }
      // Benign filler requests walk the target cursor past the sessions the
      // attacker already controls (it can recognize its own foothold
      // answering) — at most pool-1 fillers before an uncontrolled target.
      while (compromised[rr]) {
        (void)fleet.submit_to(rr, benign_job).get();
        rr = (rr + 1) % pool;
      }
      const unsigned target = rr;
      rr = (rr + 1) % pool;

      ++curve.probes;
      ++probe_serial;
      if (probe_serial % keyspace == 0) {
        // The lucky guess: the payload matched this session's reexpression,
        // so the request runs CLEAN — the monitor sees normal traffic and
        // the attacker holds the session until re-diversification.
        (void)fleet.submit_to(target, benign_job).get();
        compromised[target] = true;
        ++curve.silent_compromises;
      } else {
        // A wrong guess diverges the variants: a REAL quarantine + respawn
        // (the probe's one-quarantine cost), synchronous via the future.
        const auto before = fleet.telemetry().snapshot();
        (void)fleet
            .submit_to(target,
                       [](core::NVariantSystem&) -> core::RunReport {
                         throw std::runtime_error(kProbeSignature);
                       })
            .get();
        // If this quarantine crossed the campaign threshold under an armed
        // rotation policy, every surviving live peer (all lanes except the
        // alerting one and any lane a failed respawn retired) re-diversifies
        // on its worker thread; settle them before reading fingerprints so
        // the run stays deterministic.
        const auto after = fleet.telemetry().snapshot();
        if (after.campaign_alerts > before.campaign_alerts &&
            fleet.campaign_policy().rotate_fleet_on_alert) {
          await_rotations(fleet, before.sessions_rotated + before.rotations_failed +
                                     (pool - 1 - after.lanes_retired));
        }
        reconcile();
      }
    }

    // Catch stragglers (e.g. a worker-side adaptive rotation landing late).
    reconcile();

    const auto held = static_cast<std::uint64_t>(
        std::count(compromised.begin(), compromised.end(), true));
    curve.compromised_lane_ticks += held;
    if (t % std::max(1U, config.timeline_stride) == 0 || t == config.ticks) {
      const auto snap = fleet.telemetry().snapshot();
      TimelinePoint point;
      point.t_ms = elapsed_ms;
      point.compromised_fraction = static_cast<double>(held) / pool;
      point.probes = curve.probes;
      point.rotations = snap.sessions_rotated;
      curve.timeline.push_back(point);
    }
  }

  const auto snap = fleet.telemetry().snapshot();
  curve.quarantines = snap.sessions_quarantined;
  curve.rotations = snap.sessions_rotated;
  curve.rotations_failed = snap.rotations_failed;
  curve.campaign_alerts = snap.campaign_alerts;
  curve.policy_tightened = snap.policy_tightened;
  curve.policy_decayed = snap.policy_decayed;
  curve.mean_compromised_fraction =
      static_cast<double>(curve.compromised_lane_ticks) /
      (static_cast<double>(config.ticks) * pool);
  curve.attacker_cost = static_cast<double>(curve.probes) /
                        static_cast<double>(std::max<std::uint64_t>(
                            1, curve.compromised_lane_ticks));
  fleet.shutdown();
  return curve;
}

namespace {

std::string curve_to_json(const PopulationCurve& curve, const std::string& indent) {
  std::string json = indent + "{\n";
  const std::string in = indent + "  ";
  json += in + util::format("\"rediversify_interval_ms\": %llu,\n",
                            static_cast<unsigned long long>(curve.rediversify_interval_ms));
  json += in + util::format("\"rediversify_rate_hz\": %.6f,\n", curve.rediversify_rate_hz);
  json += in + util::format("\"probed_variation\": \"%s\",\n", curve.probed_variation.c_str());
  json += in + util::format("\"keyspace_bits\": %.6f,\n", curve.keyspace_bits);
  json += in + util::format("\"keyspace_keys\": %llu,\n",
                            static_cast<unsigned long long>(curve.keyspace_keys));
  json += in + util::format("\"probes\": %llu,\n",
                            static_cast<unsigned long long>(curve.probes));
  json += in + util::format("\"silent_compromises\": %llu,\n",
                            static_cast<unsigned long long>(curve.silent_compromises));
  json += in + util::format("\"compromised_lane_ticks\": %llu,\n",
                            static_cast<unsigned long long>(curve.compromised_lane_ticks));
  json += in + util::format("\"mean_compromised_fraction\": %.6f,\n",
                            curve.mean_compromised_fraction);
  json += in + util::format("\"attacker_cost\": %.6f,\n", curve.attacker_cost);
  json += in + util::format("\"quarantines\": %llu,\n",
                            static_cast<unsigned long long>(curve.quarantines));
  json += in + util::format("\"rotations\": %llu,\n",
                            static_cast<unsigned long long>(curve.rotations));
  json += in + util::format("\"rotations_failed\": %llu,\n",
                            static_cast<unsigned long long>(curve.rotations_failed));
  json += in + util::format("\"campaign_alerts\": %llu,\n",
                            static_cast<unsigned long long>(curve.campaign_alerts));
  json += in + util::format("\"policy_tightened\": %llu,\n",
                            static_cast<unsigned long long>(curve.policy_tightened));
  json += in + util::format("\"policy_decayed\": %llu,\n",
                            static_cast<unsigned long long>(curve.policy_decayed));
  json += in + "\"timeline\": [";
  for (std::size_t i = 0; i < curve.timeline.size(); ++i) {
    const TimelinePoint& point = curve.timeline[i];
    json += i == 0 ? "\n" : ",\n";
    json += in + "  " +
            util::format("{\"t_ms\": %llu, \"compromised_fraction\": %.4f, "
                         "\"probes\": %llu, \"rotations\": %llu}",
                         static_cast<unsigned long long>(point.t_ms),
                         point.compromised_fraction,
                         static_cast<unsigned long long>(point.probes),
                         static_cast<unsigned long long>(point.rotations));
  }
  json += curve.timeline.empty() ? "]\n" : "\n" + in + "]\n";
  json += indent + "}";
  return json;
}

std::string curve_list_to_json(const std::vector<PopulationCurve>& curves) {
  std::string json = "[";
  for (std::size_t i = 0; i < curves.size(); ++i) {
    json += i == 0 ? "\n" : ",\n";
    json += curve_to_json(curves[i], "    ");
  }
  json += curves.empty() ? "]" : "\n  ]";
  return json;
}

}  // namespace

std::string curves_to_json(const PopulationExperimentConfig& base,
                           const std::vector<PopulationCurve>& grid,
                           const std::vector<PopulationCurve>& comparison,
                           const std::vector<PopulationCurve>& variation_grid, bool quick) {
  std::string json = "{\n";
  json += "  \"schema\": \"population_curves/v2\",\n";
  json += util::format("  \"quick\": %s,\n", quick ? "true" : "false");
  json += "  \"config\": {\n";
  json += util::format("    \"pool_size\": %u,\n", base.pool_size);
  json += "    \"variations\": [";
  for (std::size_t i = 0; i < base.variations.size(); ++i) {
    json += util::format("%s\"%s\"", i == 0 ? "" : ", ", base.variations[i].c_str());
  }
  json += "],\n";
  json += util::format("    \"probed_variation\": \"%s\",\n",
                       base.attacker.probed_variation.c_str());
  json += util::format("    \"probes_per_tick\": %u,\n", base.attacker.probes_per_tick);
  json += util::format("    \"tick_ms\": %lld,\n",
                       static_cast<long long>(base.tick.count()));
  json += util::format("    \"ticks\": %u,\n", base.ticks);
  json += util::format("    \"seed\": \"0x%llX\"\n",
                       static_cast<unsigned long long>(base.seed));
  json += "  },\n";
  json += "  \"grid\": " + curve_list_to_json(grid) + ",\n";
  json += "  \"adaptive_comparison\": " + curve_list_to_json(comparison) + ",\n";
  json += "  \"variation_grid\": " + curve_list_to_json(variation_grid) + "\n";
  json += "}\n";
  return json;
}

}  // namespace nv::experiments
