// Population-scale attacker-cost experiments (Chen et al.'s "quantifying
// cybersecurity effectiveness of software diversity", applied to this
// paper's data-diversity fleet): how much does an attacker pay, in probes,
// per unit of fleet control, as the defender re-diversifies faster?
//
// The setup is a REAL VariantFleet on a ManualClock — every probe is a real
// job that really quarantines a session, feeds the real CampaignCorrelator,
// and really respawns a re-diversified replacement — driven by a scripted,
// fully deterministic attacker:
//
//   - the fleet's reexpression space has model size S (AttackerModel::
//     keyspace). Under detect-and-respawn, probing is a memoryless guessing
//     game (the paper's §3 argument: a failed guess burns the session, so
//     the attacker restarts against a fresh draw) with expected cost S per
//     compromise. The scripted attacker walks that expectation exactly:
//     every S-th probe silently compromises its target, every other probe
//     raises a real divergence quarantine.
//   - a silent compromise HOLDS (the monitor saw nothing) until that lane's
//     session is re-diversified out from under it — by the defender's
//     periodic rotate_fleet() or by campaign-driven rotation escalation.
//     The attacker chooses its target: it walks the sessions in turn and
//     sends each request to the one it names (VariantFleet::submit_to),
//     weaving benign filler requests past the sessions it already controls
//     so it never burns its own footholds.
//   - the defender's lever is the re-diversification interval; sweeping it
//     yields the attacker-cost-vs-rate curve, and sampling compromised
//     lanes per tick yields the compromised-fraction-vs-time curve.
//
// Everything runs on manual time with a fixed seed, and every request goes
// synchronously (submit_to) to the lane the attacker chose, so a given
// config produces byte-identical curves on every run — the property the CI
// perf-trajectory diffing relies on.
#ifndef NV_EXPERIMENTS_POPULATION_CURVES_H
#define NV_EXPERIMENTS_POPULATION_CURVES_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/adaptive.h"
#include "fleet/ops.h"

namespace nv::experiments {

/// The scripted attacker's parameters.
struct AttackerModel {
  /// The installed variation whose parameterization the probe payload must
  /// guess. The reexpression-space size S is NOT modeled analytically: it is
  /// the registry-reported 2^keyspace_bits() of this variation — real
  /// entropy units (address-partitioning: its genuine 16-stride space). The
  /// expected probing cost under detect-and-respawn is S per compromise; the
  /// script realizes the expectation deterministically (every S-th probe
  /// succeeds). Must name a member of PopulationExperimentConfig::variations
  /// whose keyspace is small enough to realize (2 <= S <= 2^20).
  std::string probed_variation = "address-partitioning";
  /// Probing rate: probes per simulation tick (attacker idles once every
  /// live session is compromised — full control costs nothing to keep).
  unsigned probes_per_tick = 1;
};

struct PopulationExperimentConfig {
  unsigned pool_size = 4;
  /// The fleet's DiversitySuite recipe. uid-xor rides along so the COMPOSED
  /// per-session space (keyspace_bits sum ~34 bits) never exhausts the
  /// SessionFactory during a probing run, while the attacker still pays only
  /// for the variation it probes.
  std::vector<std::string> variations = {"address-partitioning", "uid-xor"};
  std::uint64_t seed = 0xC0FFEE;
  /// Simulated duration: `ticks` steps of `tick` manual-clock time each.
  std::chrono::milliseconds tick{10};
  unsigned ticks = 400;
  /// Defender's re-diversification interval: rotate_fleet() every this much
  /// manual time. Zero = never (the static fleet the paper's single-system
  /// view ends at).
  std::chrono::milliseconds rediversify_interval{0};
  AttackerModel attacker;
  /// Campaign correlation baseline. The default threshold is effectively
  /// "off" so the primary grid isolates the periodic-rotation lever; the
  /// adaptive comparison lowers it and enables `adaptive`.
  fleet::CampaignPolicy campaign{/*threshold=*/1'000'000U,
                                 /*window=*/std::chrono::milliseconds(10'000),
                                 /*rotate_fleet_on_alert=*/false};
  bool adaptive = false;
  fleet::AdaptivePolicyConfig adaptive_config;
  /// Keep every k-th tick in the emitted timeline (JSON size bound).
  unsigned timeline_stride = 4;
};

struct TimelinePoint {
  std::uint64_t t_ms = 0;
  double compromised_fraction = 0.0;
  std::uint64_t probes = 0;     // cumulative attacker spend
  std::uint64_t rotations = 0;  // cumulative defender re-diversifications
};

/// One grid point: a full run at one re-diversification rate.
struct PopulationCurve {
  std::uint64_t rediversify_interval_ms = 0;  // 0 = never
  double rediversify_rate_hz = 0.0;           // 0 for never
  // The probed variation's REAL keyspace (registry-reported), so the curve
  // carries per-variation entropy units instead of a modeling assumption.
  std::string probed_variation;
  double keyspace_bits = 0.0;
  std::uint64_t keyspace_keys = 0;  // 2^keyspace_bits == the realized S
  // Attacker ledger.
  std::uint64_t probes = 0;
  std::uint64_t silent_compromises = 0;
  /// Attacker value: sum over ticks of compromised-lane count (lane-ticks).
  std::uint64_t compromised_lane_ticks = 0;
  double mean_compromised_fraction = 0.0;
  /// THE cost curve: probes paid per compromised lane-tick held. Rises
  /// monotonically with the re-diversification rate.
  double attacker_cost = 0.0;
  // Defender ledger (from FleetTelemetry).
  std::uint64_t quarantines = 0;
  std::uint64_t rotations = 0;
  std::uint64_t rotations_failed = 0;
  std::uint64_t campaign_alerts = 0;
  std::uint64_t policy_tightened = 0;
  std::uint64_t policy_decayed = 0;
  std::vector<TimelinePoint> timeline;
};

/// Run one grid point. Deterministic for a fixed config.
[[nodiscard]] PopulationCurve run_population_experiment(
    const PopulationExperimentConfig& config);

/// Serialize a sweep (plus the optional adaptive-vs-static comparison pair
/// and the variation A/B grid) into the BENCH_population_curves.json
/// document, schema "population_curves/v2". `grid` must be ordered by
/// ascending re-diversification rate; `variation_grid` (runs differing only
/// in the probed variation, at one fixed rotation rate) by ascending
/// keyspace_bits. tools/check_population_curves.py verifies the schema, the
/// attacker-cost monotonicity in rate, and the attacker-cost monotonicity in
/// entropy on exactly this document.
[[nodiscard]] std::string curves_to_json(const PopulationExperimentConfig& base,
                                         const std::vector<PopulationCurve>& grid,
                                         const std::vector<PopulationCurve>& comparison,
                                         const std::vector<PopulationCurve>& variation_grid,
                                         bool quick);

}  // namespace nv::experiments

#endif  // NV_EXPERIMENTS_POPULATION_CURVES_H
