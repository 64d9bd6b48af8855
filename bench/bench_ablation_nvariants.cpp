// Ablation (beyond the paper's tables, motivated by its discussion):
//   (a) cost of scaling the variant count N on one core vs N cores — the §4
//       remark that "multiprocessors may alleviate some of the problem";
//   (b) where the 2-variant overhead lives: redundant compute vs rendezvous
//       vs detection syscalls (decomposing configuration 4's cost).
#include <cstdio>

#include "perf/webbench.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
  using namespace nv;  // NOLINT
  const perf::CostModel model;

  std::printf("=== Ablation A: N variants, saturated throughput (15 clients) ===\n\n");
  {
    util::TextTable table;
    table.set_header({"N", "Thr KB/s (1 core)", "vs N=1", "Thr KB/s (N cores)", "vs N=1",
                      "unsat latency ms (1 core)"});
    for (std::size_t c = 1; c <= 5; ++c) table.align_right(c);

    const double d1 = model.demand_ms(perf::ServerSetup::kUnmodified);
    double base_thr = 0;
    for (unsigned n = 1; n <= 4; ++n) {
      // N variants: N x compute, rendezvous on every syscall when N > 1.
      const double per_syscall_us =
          model.syscall_check_us + (n > 1 ? model.rendezvous_us : 0.0);
      const double demand =
          n * model.cpu_ms + model.syscalls_per_request * per_syscall_us / 1000.0;
      const double visible =
          n == 1 ? demand : d1 + (demand - d1) * (1.0 - model.duplicate_compute_overlap);

      perf::WorkloadConfig saturated;
      saturated.clients = 15;
      saturated.duration = 20 * sim::kSecond;
      const auto one_core = perf::run_closed_loop(demand, visible, 1, model, saturated);
      // With one core per variant, the variants' compute runs in parallel and
      // only the rendezvous serializes: demand per core ~ single-variant.
      const double parallel_demand =
          model.cpu_ms + model.syscalls_per_request * per_syscall_us / 1000.0;
      const auto n_cores = perf::run_closed_loop(parallel_demand, parallel_demand, 1, model,
                                                 saturated);

      perf::WorkloadConfig unsat;
      unsat.clients = 1;
      unsat.duration = 20 * sim::kSecond;
      const auto unsat_result = perf::run_closed_loop(demand, visible, 1, model, unsat);

      if (n == 1) base_thr = one_core.throughput_kbps;
      table.add_row({std::to_string(n), util::format("%.0f", one_core.throughput_kbps),
                     util::format("%.2fx", base_thr / one_core.throughput_kbps),
                     util::format("%.0f", n_cores.throughput_kbps),
                     util::format("%.2fx", base_thr / n_cores.throughput_kbps),
                     util::format("%.2f", unsat_result.latency_ms)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("reading: on one core, throughput scales ~1/N (redundant compute);\n"
                "with a core per variant only the rendezvous tax remains — the paper's\n"
                "multiprocessor remark quantified.\n\n");
  }

  std::printf("=== Ablation B: decomposing configuration 4's overhead ===\n\n");
  {
    struct Step {
      const char* label;
      double cpu_factor;      // per-variant CPU multiplier
      int variants;
      double rendezvous_us;   // per syscall
      int extra_syscalls;
    };
    const Step steps[] = {
        {"baseline (config 1)", 1.0, 1, 0.0, 0},
        {"+ transformation", model.transform_factor, 1, 0.0, model.transformed_extra_syscalls},
        {"+ second variant (x2 compute)", model.transform_factor, 2, 0.0,
         model.transformed_extra_syscalls},
        {"+ rendezvous/monitor per syscall", model.transform_factor, 2, model.rendezvous_us,
         model.transformed_extra_syscalls},
        {"+ UID detection syscalls (config 4)", model.transform_factor, 2, model.rendezvous_us,
         model.transformed_extra_syscalls + model.uid_variation_extra_syscalls},
    };
    util::TextTable table;
    table.set_header({"Configuration step", "demand ms/req", "sat thr KB/s", "cumulative drop"});
    for (std::size_t c = 1; c <= 3; ++c) table.align_right(c);
    double base = 0;
    for (const Step& step : steps) {
      const double per_syscall_us = model.syscall_check_us + step.rendezvous_us;
      const double demand = step.variants * model.cpu_ms * step.cpu_factor +
                            (model.syscalls_per_request + step.extra_syscalls) *
                                per_syscall_us / 1000.0;
      perf::WorkloadConfig saturated;
      saturated.clients = 15;
      saturated.duration = 20 * sim::kSecond;
      const auto result = perf::run_closed_loop(demand, demand, 1, model, saturated);
      if (base == 0) base = result.throughput_kbps;
      table.add_row({step.label, util::format("%.3f", demand),
                     util::format("%.0f", result.throughput_kbps),
                     util::format("%.1f%%", 100.0 * (1.0 - result.throughput_kbps / base))});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("reading: the second variant's compute dominates (the paper's \"approximate\n"
                "halving\"); rendezvous adds a second-order tax; the UID variation's own\n"
                "detection syscalls are nearly free (§4: ~4.5%% on top of config 3).\n");
  }
  return 0;
}
