// Chen-et-al-style population effectiveness curves on the real fleet:
// attacker cost vs. the defender's re-diversification rate, and expected
// compromised fraction vs. time, plus an adaptive-defense vs. static-policy
// comparison. Fully deterministic (ManualClock + fixed seed + an attacker
// that names each request's lane with submit_to), so the emitted
// BENCH_population_curves.json is diffable across PRs — CI archives it as
// the perf trajectory and tools/check_population_curves.py validates the
// schema + monotonicity.
//
//   $ ./bench_population_curves [--quick] [--out BENCH_population_curves.json]
//
// Exit code is non-zero when the core claim fails: attacker cost must rise
// MONOTONICALLY with the re-diversification rate.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "experiments/population_curves.h"
#include "util/strings.h"
#include "util/table.h"

using namespace nv;  // NOLINT

namespace {

experiments::PopulationExperimentConfig base_config(bool quick) {
  experiments::PopulationExperimentConfig config;
  config.pool_size = 4;
  config.seed = 0xC0FFEE;
  config.tick = std::chrono::milliseconds(10);
  config.ticks = quick ? 400 : 1600;
  // The attacker probes address-partitioning's REAL registry-reported
  // keyspace (16 strides => S = 16, success period 160 ms at 1 probe/tick);
  // uid-xor rides along so the composed session space (~34 bits) never
  // exhausts the factory. The grid intervals below deliberately avoid
  // multiples of that 160 ms so the success schedule does not phase-lock to
  // the rotation period (footholds land at varied offsets and the average
  // hold stays ~interval/2, as the analytic expectation wants).
  config.variations = {"address-partitioning", "uid-xor"};
  config.attacker.probed_variation = "address-partitioning";
  config.attacker.probes_per_tick = 1;
  config.timeline_stride = quick ? 8 : 16;
  return config;
}

void print_grid(const std::vector<experiments::PopulationCurve>& grid) {
  util::TextTable table;
  table.set_header({"rediversify", "rate Hz", "probes", "compromised lane-ticks",
                    "mean comp. frac", "attacker cost"});
  for (std::size_t c = 1; c <= 5; ++c) table.align_right(c);
  for (const auto& curve : grid) {
    table.add_row({curve.rediversify_interval_ms == 0
                       ? std::string("never")
                       : util::format("%llu ms", static_cast<unsigned long long>(
                                                     curve.rediversify_interval_ms)),
                   util::format("%.2f", curve.rediversify_rate_hz),
                   std::to_string(curve.probes), std::to_string(curve.compromised_lane_ticks),
                   util::format("%.3f", curve.mean_compromised_fraction),
                   util::format("%.3f", curve.attacker_cost)});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_population_curves.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  const auto base = base_config(quick);
  std::printf("=== population curves: attacker cost vs. re-diversification rate ===\n");
  std::printf("(pool %u, probing %s, %u ticks x %lld ms manual time%s)\n\n",
              base.pool_size, base.attacker.probed_variation.c_str(), base.ticks,
              static_cast<long long>(base.tick.count()), quick ? ", --quick" : "");

  // The primary grid: periodic re-diversification, slow to fast, campaigns
  // out of the way (the rotation-rate lever in isolation). No interval is a
  // multiple of the 160 ms success period (see base_config).
  const std::vector<std::uint64_t> intervals_ms = {0, 1290, 650, 330, 170, 90};
  std::vector<experiments::PopulationCurve> grid;
  for (const std::uint64_t interval : intervals_ms) {
    auto config = base;
    config.rediversify_interval = std::chrono::milliseconds(interval);
    grid.push_back(experiments::run_population_experiment(config));
  }
  print_grid(grid);
  std::printf(
      "reading: each probe costs the attacker one real quarantine; every S-th (here %llu-th,\n"
      "S = 2^%.1f, the registry-reported %s keyspace) guess lands silently\n"
      "and HOLDS until that session is re-diversified. Rotating faster shortens every\n"
      "foothold, so the probes the attacker must spend per lane-tick of control — the\n"
      "attacker cost — rises with the re-diversification rate.\n\n",
      static_cast<unsigned long long>(grid.front().keyspace_keys),
      grid.front().keyspace_bits, grid.front().probed_variation.c_str());

  // Adaptive vs. static at the same baseline: campaigns ON (threshold 3,
  // 2 s window), no periodic rotation — the defense must come from the
  // adaptive posture (tighten on alert, re-diversify every 170 ms while
  // tightened, decay after 1 s of quiet).
  std::vector<experiments::PopulationCurve> comparison;
  {
    auto static_config = base;
    static_config.campaign.threshold = 3;
    static_config.campaign.window = std::chrono::milliseconds(2000);
    comparison.push_back(experiments::run_population_experiment(static_config));

    auto adaptive_config = static_config;
    adaptive_config.adaptive = true;
    adaptive_config.adaptive_config.threshold_floor = 1;
    adaptive_config.adaptive_config.window_step = std::chrono::milliseconds(2000);
    adaptive_config.adaptive_config.window_cap = std::chrono::milliseconds(8000);
    adaptive_config.adaptive_config.quiet_period = std::chrono::milliseconds(1000);
    adaptive_config.adaptive_config.tightened_rotation_interval =
        std::chrono::milliseconds(170);
    comparison.push_back(experiments::run_population_experiment(adaptive_config));
  }
  std::printf("--- adaptive defense vs. static policy (no periodic rotation) ---\n\n");
  {
    util::TextTable table;
    table.set_header({"posture", "probes", "compromised lane-ticks", "attacker cost",
                      "rotations", "tightened", "decayed"});
    for (std::size_t c = 1; c <= 6; ++c) table.align_right(c);
    const char* names[] = {"static", "adaptive"};
    for (std::size_t i = 0; i < comparison.size(); ++i) {
      const auto& curve = comparison[i];
      table.add_row({names[i], std::to_string(curve.probes),
                     std::to_string(curve.compromised_lane_ticks),
                     util::format("%.3f", curve.attacker_cost),
                     std::to_string(curve.rotations), std::to_string(curve.policy_tightened),
                     std::to_string(curve.policy_decayed)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "reading: the campaign alert tightens the live policy and starts heightened-\n"
        "posture re-diversification; the same attack against the static policy keeps\n"
        "its footholds. Adaptation buys the rate increase only while under attack.\n\n");
  }

  // The entropy A/B: the same attacker, the same fixed rotation rate, probing
  // variations with DIFFERENT real keyspaces. The curves now carry genuine
  // per-variation units, so "more entropy => more probes per lane-tick held"
  // is checkable instead of assumed.
  std::vector<experiments::PopulationCurve> variation_grid;
  for (const char* probed : {"address-partitioning", "instruction-tagging"}) {
    auto config = base;
    config.variations = {probed, "uid-xor"};
    config.attacker.probed_variation = probed;
    config.rediversify_interval = std::chrono::milliseconds(330);
    variation_grid.push_back(experiments::run_population_experiment(config));
  }
  std::printf("--- variation A/B: attacker cost vs. probed keyspace (rotation 330 ms) ---\n\n");
  {
    util::TextTable table;
    table.set_header({"probed variation", "keyspace", "bits", "probes",
                      "compromised lane-ticks", "attacker cost"});
    for (std::size_t c = 1; c <= 5; ++c) table.align_right(c);
    for (const auto& curve : variation_grid) {
      table.add_row({curve.probed_variation, std::to_string(curve.keyspace_keys),
                     util::format("%.1f", curve.keyspace_bits), std::to_string(curve.probes),
                     std::to_string(curve.compromised_lane_ticks),
                     util::format("%.3f", curve.attacker_cost)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "reading: at a fixed defense rate the attacker's cost scales with the probed\n"
        "variation's real entropy — the per-variation units Chen et al. ask diversity\n"
        "effectiveness claims to carry.\n\n");
  }

  const std::string json =
      experiments::curves_to_json(base, grid, comparison, variation_grid, quick);
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << json;
  out.close();
  std::printf("wrote %s (%zu bytes)\n", out_path.c_str(), json.size());

  // The acceptance claim, enforced: cost must rise monotonically with the
  // rate. The grid above is ordered slowest-to-fastest.
  bool monotone = true;
  for (std::size_t i = 1; i < grid.size(); ++i) {
    if (grid[i].attacker_cost <= grid[i - 1].attacker_cost) {
      monotone = false;
      std::fprintf(stderr,
                   "MONOTONICITY VIOLATION: rate %.2f Hz cost %.3f <= rate %.2f Hz cost %.3f\n",
                   grid[i].rediversify_rate_hz, grid[i].attacker_cost,
                   grid[i - 1].rediversify_rate_hz, grid[i - 1].attacker_cost);
    }
  }
  const bool adaptive_wins =
      comparison.size() == 2 && comparison[1].attacker_cost > comparison[0].attacker_cost;
  if (!adaptive_wins) {
    std::fprintf(stderr, "adaptive posture did not raise attacker cost over static\n");
  }
  // Entropy claim: more real keyspace must cost the attacker more at the same
  // defense rate (variation_grid is ordered by ascending keyspace_bits).
  bool entropy_monotone = true;
  for (std::size_t i = 1; i < variation_grid.size(); ++i) {
    if (variation_grid[i].keyspace_bits <= variation_grid[i - 1].keyspace_bits ||
        variation_grid[i].attacker_cost <= variation_grid[i - 1].attacker_cost) {
      entropy_monotone = false;
      std::fprintf(stderr,
                   "ENTROPY VIOLATION: %s (%.1f bits) cost %.3f vs %s (%.1f bits) cost %.3f\n",
                   variation_grid[i].probed_variation.c_str(), variation_grid[i].keyspace_bits,
                   variation_grid[i].attacker_cost,
                   variation_grid[i - 1].probed_variation.c_str(),
                   variation_grid[i - 1].keyspace_bits, variation_grid[i - 1].attacker_cost);
    }
  }
  std::printf(
      "=> attacker cost monotone in re-diversification rate: %s; adaptive > static: %s; "
      "cost monotone in probed entropy: %s\n",
      monotone ? "yes" : "NO", adaptive_wins ? "yes" : "NO", entropy_monotone ? "yes" : "NO");
  return monotone && adaptive_wins && entropy_monotone ? 0 : 1;
}
