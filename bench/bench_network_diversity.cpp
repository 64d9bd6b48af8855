// Fleet-of-fleets attacker-cost curves: what does SHARDING the deployment —
// independent per-shard draw spaces + drawn network identities + cross-shard
// campaign gossip — cost an attacker, at FIXED total lanes and FIXED total
// payload keyspace? Fully deterministic (one ManualClock, fixed seed, an
// attacker that names each request's lane with submit_to), so the emitted
// BENCH_network_diversity.json is diffable across PRs — CI archives it, and
// tools/check_bench.py checks the schema, the ledger arithmetic and the
// claims (docs/BENCH_SCHEMAS.md).
//
//   $ ./bench_network_diversity [--quick] [--out BENCH_network_diversity.json]
//                               [--trace-out TRACE.json]
//
// --trace-out threads a TraceRecorder through the LAST grid point (the
// highest shard count) and writes the whole campaign — session draws, probe
// jobs, quarantines, alerts, gossip hops, remote tightens, sweeps — as a
// Chrome/Perfetto-loadable trace. Tracing does not perturb the deterministic
// bench numbers; tools/check_bench.py checks the trace too.
//
// Exits 0 once the documents are written, 2 on a usage or I/O error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "experiments/network_diversity.h"
#include "obs/exporters.h"
#include "util/strings.h"
#include "util/table.h"

using namespace nv;  // NOLINT

namespace {

experiments::ClusterExperimentConfig base_config(bool quick) {
  experiments::ClusterExperimentConfig config;
  config.total_lanes = 8;
  config.seed = 0xC0FFEE;
  config.tick = std::chrono::milliseconds(10);
  config.ticks = quick ? 400 : 800;
  config.probes_per_tick = 4;
  config.timeline_stride = quick ? 8 : 16;
  return config;
}

void print_grid(const std::vector<experiments::ClusterCurve>& grid) {
  util::TextTable table;
  table.set_header({"shards", "lanes/shard", "payload probes", "endpoint probes",
                    "compromised lane-ticks", "pre-warned", "attacker cost"});
  for (std::size_t c = 0; c <= 6; ++c) table.align_right(c);
  for (const auto& curve : grid) {
    table.add_row({std::to_string(curve.shards), std::to_string(curve.lanes_per_shard),
                   std::to_string(curve.payload_probes), std::to_string(curve.endpoint_probes),
                   std::to_string(curve.compromised_lane_ticks),
                   std::to_string(curve.pre_warned_shards),
                   util::format("%.1f", curve.attacker_cost)});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_network_diversity.json";
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH] [--trace-out PATH]\n", argv[0]);
      return 2;
    }
  }

  const auto base = base_config(quick);
  std::printf("=== network diversity: attacker cost vs. shard count ===\n");
  std::printf("(%u total lanes, probing %s, network %s, %u ticks x %lld ms manual time%s)\n\n",
              base.total_lanes, base.probed_variation.c_str(),
              base.network_variations.empty() ? "static" : base.network_variations[0].c_str(),
              base.ticks, static_cast<long long>(base.tick.count()),
              quick ? ", --quick" : "");

  // The grid: shard counts at FIXED total lanes (and the probed variation's
  // keyspace is per shard but identical across grid points, so total payload
  // entropy is held fixed too). Ascending — the checker requires cost to
  // rise strictly along it.
  const std::vector<unsigned> shard_counts =
      quick ? std::vector<unsigned>{1, 2, 4} : std::vector<unsigned>{1, 2, 4, 8};
  std::vector<experiments::ClusterCurve> grid;
  std::shared_ptr<obs::TraceRecorder> recorder;
  for (const unsigned shards : shard_counts) {
    auto config = base;
    config.shards = shards;
    if (!trace_path.empty() && shards == shard_counts.back()) {
      // Trace the most interesting grid point (highest shard count: gossip,
      // remote tightens, and network rotations all in play). A generous ring
      // keeps the causal chains complete for the checker's span closure.
      obs::TraceConfig trace_config;
      trace_config.ring_capacity = 65'536;
      recorder = std::make_shared<obs::TraceRecorder>(trace_config);
      config.trace = recorder;
    }
    grid.push_back(experiments::run_cluster_experiment(config));
  }
  print_grid(grid);

  if (recorder) {
    std::ofstream trace_out(trace_path);
    trace_out << obs::to_chrome_trace(*recorder);
    trace_out.close();
    if (!trace_out) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 2;
    }
    std::printf("wrote %s (%llu events, %llu dropped)\n", trace_path.c_str(),
                static_cast<unsigned long long>(recorder->recorded()),
                static_cast<unsigned long long>(recorder->dropped()));
  }
  std::printf(
      "reading: payload probes buy per-shard guesses (shard draw spaces are\n"
      "independent: a mapped re-expression on shard A says nothing about shard B),\n"
      "and every shard contacted — or re-contacted after a network-identity\n"
      "rotation — first costs an endpoint scan of 2^%.1f-1 bits expected (%llu\n"
      "probes). Campaign gossip pre-warns the shards the attacker has not reached\n"
      "yet (pre-warned), so the defender's sweep re-diversifies them BEFORE they\n"
      "lose a session. More shards at the same total capacity => strictly more\n"
      "probes per lane-tick of control.\n\n",
      grid.front().network_bits,
      static_cast<unsigned long long>(grid.front().endpoint_discovery_cost));

  const std::string json = experiments::cluster_curves_to_json(base, grid, quick);
  std::ofstream out(out_path);
  out << json;
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s (%zu bytes)\n", out_path.c_str(), json.size());
  return 0;
}
