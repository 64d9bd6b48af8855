// Fleet throughput: jobs/s as the worker pool widens (1..hardware threads)
// and as the per-session variant count N grows, plus what work stealing buys
// benign traffic while attacked lanes respawn. The workload is the
// socket-free uid-churn guest, so the numbers measure the MVEE + fleet
// machinery (rendezvous rounds, dispatch, quarantine/respawn), not simulated
// network latency.
// `--trace-ab` runs ONLY the tracing A/B (also printed on every full run):
// the same workload with no recorder attached, with a recorder attached but
// disabled, and with default-sampling tracing enabled — the observability
// layer's "cheap when off, affordable when on" claim, measured.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fleet/fleet.h"
#include "fleet/jobs.h"
#include "obs/trace.h"
#include "util/mutex.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

using namespace nv;  // NOLINT

namespace {

struct BenchResult {
  double jobs_per_sec = 0;
  double p50_us = 0;
  double p95_us = 0;
  std::uint64_t syscall_rounds = 0;
};

BenchResult run_fleet(unsigned pool_size, unsigned n_variants, unsigned jobs,
                      unsigned rounds_per_job,
                      std::shared_ptr<obs::TraceRecorder> trace = nullptr) {
  fleet::FleetConfig config;
  config.spec.n_variants = n_variants;
  config.spec.variations = {"uid-xor"};
  config.pool_size = pool_size;
  config.queue_capacity = jobs;
  config.trace = std::move(trace);
  fleet::VariantFleet fleet(config);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<fleet::JobOutcome>> futures;
  futures.reserve(jobs);
  for (unsigned i = 0; i < jobs; ++i) {
    futures.push_back(fleet.submit(fleet::jobs::uid_churn(rounds_per_job)));
  }
  for (auto& future : futures) (void)future.get();
  const auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start);

  const auto snap = fleet.telemetry().snapshot();
  BenchResult result;
  result.jobs_per_sec = static_cast<double>(jobs) / elapsed.count();
  result.p50_us = snap.latency_p50_us;
  result.p95_us = snap.latency_p95_us;
  result.syscall_rounds = snap.syscall_rounds;
  return result;
}

/// END-TO-END (submit -> completion) benign p95 while a trickle of attacks
/// quarantines sessions — end-to-end, because the damage a stalled lane does
/// is QUEUE time, which JobOutcome::latency (execution only) cannot see. The
/// respawn is padded to `respawn_cost` (modelling a realistic re-diversify +
/// spawn cost; the in-process factory alone is microseconds): with stealing
/// OFF the respawning lane's queued benign jobs eat that pause, with
/// stealing ON the surviving lanes absorb the backlog.
double benign_p95_under_attack(unsigned pool_size, unsigned benign_jobs, unsigned attacks,
                               bool work_stealing, std::chrono::milliseconds respawn_cost) {
  fleet::FleetConfig config;
  config.spec.n_variants = 2;
  config.spec.variations = {"uid-xor"};
  config.pool_size = pool_size;
  config.queue_capacity = benign_jobs + attacks;
  config.seed = 0xBE7C;
  config.work_stealing = work_stealing;
  config.respawn_hook = [respawn_cost](unsigned) { std::this_thread::sleep_for(respawn_cost); };
  fleet::VariantFleet fleet(config);

  // Each benign job stamps its own completion on the worker thread, so the
  // measurement is submit -> finish regardless of the order we harvest
  // futures in.
  auto latencies = std::make_shared<util::Samples>();
  auto latencies_mutex = std::make_shared<util::Mutex>();
  auto timed_churn = [&latencies, &latencies_mutex] {
    const auto submitted = std::chrono::steady_clock::now();
    fleet::FleetJob inner = fleet::jobs::uid_churn(100);
    return [latencies, latencies_mutex, submitted,
            inner = std::move(inner)](core::NVariantSystem& system) {
      core::RunReport report = inner(system);
      const double end_to_end_us =
          std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - submitted)
              .count();
      const util::MutexLock lock(*latencies_mutex);
      latencies->add(end_to_end_us);
      return report;
    };
  };

  std::vector<std::future<fleet::JobOutcome>> futures;
  // Interleave: one attack ahead of each slice of benign traffic, so benign
  // jobs queue BEHIND the lanes that are about to quarantine.
  const unsigned slice = attacks == 0 ? benign_jobs : benign_jobs / attacks;
  unsigned attacks_sent = 0;
  for (unsigned i = 0; i < benign_jobs; ++i) {
    if (attacks > 0 && slice > 0 && i % slice == 0 && attacks_sent < attacks) {
      futures.push_back(fleet.submit([](core::NVariantSystem&) -> core::RunReport {
        throw std::runtime_error("bench attack");
      }));
      ++attacks_sent;
    }
    futures.push_back(fleet.submit(timed_churn()));
  }
  for (auto& future : futures) (void)future.get();
  return latencies->percentile(95.0);
}

/// The tracing A/B: identical workload under the three recorder states the
/// cost model promises are cheap (docs/TRACING.md). States are interleaved
/// within each repetition (so machine drift hits all three equally) and the
/// verdict uses each state's BEST run — scheduler noise only ever adds.
void trace_ab(unsigned pool, unsigned jobs, unsigned rounds) {
  std::printf("--- tracing A/B: off vs attached-but-disabled vs default sampling ---\n\n");
  constexpr int kReps = 9;
  struct State {
    const char* label;
    std::shared_ptr<obs::TraceRecorder> (*make)();
  };
  const State states[] = {
      {"no recorder (null pointer)", [] { return std::shared_ptr<obs::TraceRecorder>(); }},
      {"recorder attached, enabled=false",
       [] {
         obs::TraceConfig config;
         config.enabled = false;
         return std::make_shared<obs::TraceRecorder>(config);
       }},
      {"tracing ON, default sampling",
       [] { return std::make_shared<obs::TraceRecorder>(); }},
  };

  double p95[3];
  double throughput[3];
  std::fill(std::begin(p95), std::end(p95), 0.0);
  std::fill(std::begin(throughput), std::end(throughput), 0.0);
  (void)run_fleet(pool, 2, jobs, rounds);  // warm caches/allocator once
  for (int rep = 0; rep < kReps; ++rep) {
    for (int i = 0; i < 3; ++i) {
      // Rotate which state runs first each rep: CPU frequency/thermal state
      // correlates with position in the triple, and a fixed order would bill
      // that drift to one state.
      const int s = (i + rep) % 3;
      const BenchResult r = run_fleet(pool, 2, jobs, rounds, states[s].make());
      p95[s] = p95[s] == 0.0 ? r.p95_us : std::min(p95[s], r.p95_us);
      throughput[s] = std::max(throughput[s], r.jobs_per_sec);
    }
  }

  util::TextTable table;
  table.set_header({"state", "jobs/s", "job p95 us", "p95 vs untraced"});
  for (std::size_t c = 1; c <= 3; ++c) table.align_right(c);
  for (int s = 0; s < 3; ++s) {
    table.add_row({states[s].label, util::format("%.0f", throughput[s]),
                   util::format("%.0f", p95[s]), util::format("%.2fx", p95[s] / p95[0])});
  }
  std::printf("%s\n", table.render().c_str());
  const double overhead = p95[2] / p95[0] - 1.0;
  std::printf("reading: a null recorder never enters the record path and enabled=false is\n"
              "two relaxed loads per event site. Default sampling (1-in-16 rendezvous\n"
              "rounds, every per-job event) costs %.1f%% on job p95 (target: <= 5%%,\n"
              "best of %d interleaved runs per state).\n",
              overhead * 100.0, kReps);
}

}  // namespace

int main(int argc, char** argv) {
  const bool ab_only =
      argc > 1 && std::any_of(argv + 1, argv + argc,
                              [](const char* arg) { return std::strcmp(arg, "--trace-ab") == 0; });
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  // Sweep at least {1, 2} so the scaling table is informative even on a
  // single-core box (where it honestly reports ~1x).
  const unsigned max_pool = std::max(2U, std::min(hw, 8U));
  constexpr unsigned kJobs = 48;
  constexpr unsigned kRounds = 100;

  std::printf("=== fleet throughput (uid-churn jobs, %u jobs x %u rounds) ===\n\n", kJobs,
              kRounds);

  if (ab_only) {
    trace_ab(std::min(max_pool, 4U), kJobs, kRounds);
    return 0;
  }

  std::printf("--- scaling the worker pool (N=2 variants per session) ---\n\n");
  {
    util::TextTable table;
    table.set_header({"pool", "jobs/s", "speedup", "job p50 us", "job p95 us"});
    for (std::size_t c = 1; c <= 4; ++c) table.align_right(c);
    double base = 0;
    for (unsigned pool = 1; pool <= max_pool; pool *= 2) {
      const BenchResult r = run_fleet(pool, 2, kJobs, kRounds);
      if (base == 0) base = r.jobs_per_sec;
      table.add_row({std::to_string(pool), util::format("%.0f", r.jobs_per_sec),
                     util::format("%.2fx", r.jobs_per_sec / base),
                     util::format("%.0f", r.p50_us), util::format("%.0f", r.p95_us)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("reading: sessions are independent, so throughput scales with the pool\n"
                "until the machine runs out of cores (each session runs its N variants as\n"
                "fibers on its worker's thread).\n\n");
  }

  std::printf("--- scaling N per session (pool of %u) ---\n\n", std::min(max_pool, 4U));
  {
    util::TextTable table;
    table.set_header({"N", "jobs/s", "vs N=2", "syscall rounds", "job p50 us"});
    for (std::size_t c = 1; c <= 4; ++c) table.align_right(c);
    double base = 0;
    for (unsigned n = 2; n <= 4; ++n) {
      const BenchResult r = run_fleet(std::min(max_pool, 4U), n, kJobs, kRounds);
      if (base == 0) base = r.jobs_per_sec;
      table.add_row({std::to_string(n), util::format("%.0f", r.jobs_per_sec),
                     util::format("%.2fx", r.jobs_per_sec / base),
                     std::to_string(r.syscall_rounds), util::format("%.0f", r.p50_us)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("reading: widening N adds redundant compute and a wider rendezvous per\n"
                "syscall — the paper's N-cost, now measured at fleet scale.\n\n");
  }

  std::printf("--- benign p95 under attack: work stealing on vs off ---\n\n");
  {
    const unsigned pool = std::min(max_pool, 4U);
    constexpr unsigned kBenign = 48;
    constexpr unsigned kAttacks = 6;
    const auto kRespawnCost = std::chrono::milliseconds(20);

    const double baseline = benign_p95_under_attack(pool, kBenign, 0, true, kRespawnCost);
    const double stealing = benign_p95_under_attack(pool, kBenign, kAttacks, true, kRespawnCost);
    const double affinity = benign_p95_under_attack(pool, kBenign, kAttacks, false, kRespawnCost);

    util::TextTable table;
    table.set_header({"scenario", "benign p95 us", "vs no-attack baseline"});
    for (std::size_t c = 1; c <= 2; ++c) table.align_right(c);
    table.add_row({"no attacks (baseline)", util::format("%.0f", baseline), "1.00x"});
    table.add_row({util::format("%u attacks, stealing ON", kAttacks),
                   util::format("%.0f", stealing), util::format("%.2fx", stealing / baseline)});
    table.add_row({util::format("%u attacks, stealing OFF", kAttacks),
                   util::format("%.0f", affinity), util::format("%.2fx", affinity / baseline)});
    std::printf("%s\n", table.render().c_str());
    std::printf("reading: each attack pins its lane for a %lld ms respawn. With stealing the\n"
                "surviving lanes absorb the stalled backlog and benign p95 stays near the\n"
                "no-attack baseline (target: within 2x); with strict affinity every benign\n"
                "job queued behind a quarantined session eats the full respawn pause.\n",
                static_cast<long long>(kRespawnCost.count()));
  }

  std::printf("\n");
  trace_ab(std::min(max_pool, 4U), kJobs, kRounds);
  return 0;
}
