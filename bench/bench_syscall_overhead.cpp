// Syscall-pipeline overhead: the per-call rendezvous barrier vs. the async/
// batched pipeline (core/rendezvous.h). Two A/B scenarios on the real MVEE:
//
//   completion_getpid  per-call barrier (PipelineMode::kLockstep) vs. the
//                      async completion ring (kPipelined) on an argument-free
//                      read-only input call (BatchPolicy::kCompletion).
//   batched_read       per-call exchange vs. raw_syscall_batch() coalescing K
//                      reads into one barrier round (BatchPolicy::kCoalesce).
//
// Emits BENCH_syscall_overhead.json ("syscall_overhead/v1"); CI archives it
// and tools/check_syscall_overhead.py validates the schema. Exit code is
// non-zero when the acceptance claim fails: read-only scenarios must show at
// least a 3x throughput gain over the per-call barrier, and the fast side
// must synchronize strictly fewer barrier rounds.
//
//   $ ./bench_syscall_overhead [--quick] [--out BENCH_syscall_overhead.json]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/nvariant_system.h"
#include "guest/guest_program.h"
#include "util/strings.h"
#include "util/table.h"

using namespace nv;  // NOLINT

namespace {

constexpr double kReadonlySpeedupMin = 3.0;

struct RunResult {
  double us = 0.0;  // best-of-repetitions wall time for the guest bodies
  core::RunReport report;
};

struct Scenario {
  std::string name;
  bool read_only = false;
  std::uint64_t calls = 0;
  std::string baseline_mode;
  std::string fast_mode;
  RunResult baseline;
  RunResult fast;

  [[nodiscard]] double speedup() const { return fast.us > 0.0 ? baseline.us / fast.us : 0.0; }
  [[nodiscard]] double baseline_calls_per_sec() const {
    return baseline.us > 0.0 ? static_cast<double>(calls) * 1e6 / baseline.us : 0.0;
  }
  [[nodiscard]] double fast_calls_per_sec() const {
    return fast.us > 0.0 ? static_cast<double>(calls) * 1e6 / fast.us : 0.0;
  }
};

/// Time one full run() of `body` on a fresh 2-variant system; keep the best
/// (minimum) wall time over `reps` repetitions so scheduler noise shrinks the
/// measured gap instead of inflating it.
template <typename MakeSystem, typename Body>
RunResult timed_run(const MakeSystem& make_system, const Body& body, unsigned reps) {
  RunResult result;
  result.us = 0.0;
  for (unsigned rep = 0; rep < reps; ++rep) {
    auto system = make_system();
    const auto start = std::chrono::steady_clock::now();
    auto report = system->run(body);
    const auto us = static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(
                                            std::chrono::steady_clock::now() - start)
                                            .count());
    if (rep == 0 || us < result.us) result.us = us;
    result.report = std::move(report);
  }
  return result;
}

RunResult run_getpid(core::PipelineMode mode, std::uint64_t calls, unsigned reps) {
  const auto make_system = [mode] {
    return core::NVariantSystem::Builder()
        .pipeline(mode)
        .build();
  };
  const auto body = [calls](unsigned, vkernel::SyscallPort& port, vkernel::Process&,
                            const core::VariantConfig&) {
    vkernel::SyscallArgs args;
    args.no = vkernel::Sys::kGetpid;
    for (std::uint64_t i = 0; i < calls; ++i) (void)port.syscall(args);
    vkernel::SyscallArgs exit_call;
    exit_call.no = vkernel::Sys::kExit;
    exit_call.ints = {0};
    (void)port.syscall(exit_call);
  };
  return timed_run(make_system, body, reps);
}

RunResult run_read(bool batched, std::uint64_t calls, std::size_t batch_size, unsigned reps) {
  const auto make_system = [] {
    auto system = core::NVariantSystem::Builder()
                      .pipeline(core::PipelineMode::kPipelined)
                      .build();
    (void)system->fs().write_file("/bench.dat", std::string(4096, 'x'),
                                  os::Credentials::root());
    return system;
  };
  const auto body = [batched, calls, batch_size](unsigned, vkernel::SyscallPort& port,
                                                 vkernel::Process& proc,
                                                 const core::VariantConfig& config) {
    guest::GuestContext ctx(port, proc, config);
    auto fd = ctx.open("/bench.dat", os::OpenFlags::kRead);
    int code = 0;
    if (!fd) {
      code = 1;
    } else if (batched) {
      vkernel::SyscallBatch batch;
      batch.calls.reserve(batch_size);
      for (std::size_t j = 0; j < batch_size; ++j) {
        vkernel::SyscallArgs args;
        args.no = vkernel::Sys::kRead;
        args.ints = {static_cast<std::uint64_t>(*fd), 1};
        batch.calls.push_back(std::move(args));
      }
      for (std::uint64_t i = 0; i < calls; i += batch_size) (void)ctx.raw_syscall_batch(batch);
    } else {
      for (std::uint64_t i = 0; i < calls; ++i) (void)ctx.read(*fd, 1);
    }
    if (fd) (void)ctx.close(*fd);
    try {
      ctx.exit(code);
    } catch (const guest::GuestExit&) {
    }
  };
  return timed_run(make_system, body, reps);
}

void append_side(std::string& json, const char* key, const std::string& mode,
                 const RunResult& side, std::uint64_t calls, bool last) {
  json += util::format(
      "      \"%s\": {\"mode\": \"%s\", \"us\": %.1f, \"calls_per_sec\": %.1f, "
      "\"rounds\": %llu, \"batches\": %llu, \"async_completions\": %llu}%s\n",
      key, mode.c_str(), side.us,
      side.us > 0.0 ? static_cast<double>(calls) * 1e6 / side.us : 0.0,
      static_cast<unsigned long long>(side.report.syscall_rounds),
      static_cast<unsigned long long>(side.report.syscall_batches),
      static_cast<unsigned long long>(side.report.async_completions), last ? "" : ",");
}

std::string to_json(const std::vector<Scenario>& scenarios, bool quick, std::uint64_t calls,
                    std::size_t batch_size, unsigned reps) {
  std::string json;
  json += "{\n";
  json += "  \"schema\": \"syscall_overhead/v1\",\n";
  json += util::format("  \"quick\": %s,\n", quick ? "true" : "false");
  json += util::format(
      "  \"config\": {\"variants\": 2, \"calls\": %llu, \"batch_size\": %zu, "
      "\"repetitions\": %u},\n",
      static_cast<unsigned long long>(calls), batch_size, reps);
  json += util::format("  \"claims\": {\"readonly_speedup_min\": %.1f},\n", kReadonlySpeedupMin);
  json += "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    json += "    {\n";
    json += util::format("      \"name\": \"%s\",\n", s.name.c_str());
    json += util::format("      \"read_only\": %s,\n", s.read_only ? "true" : "false");
    json += util::format("      \"calls\": %llu,\n", static_cast<unsigned long long>(s.calls));
    append_side(json, "baseline", s.baseline_mode, s.baseline, s.calls, false);
    append_side(json, "fast", s.fast_mode, s.fast, s.calls, false);
    json += util::format("      \"speedup\": %.3f\n", s.speedup());
    json += i + 1 < scenarios.size() ? "    },\n" : "    }\n";
  }
  json += "  ]\n";
  json += "}\n";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_syscall_overhead.json";
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

  const std::uint64_t calls = quick ? 4096 : 16384;
  const std::size_t batch_size = 32;
  const unsigned reps = quick ? 2 : 3;

  std::printf("=== syscall pipeline overhead: per-call barrier vs. async/batched ===\n");
  std::printf("(2 variants, %llu calls per guest, batch size %zu, best of %u runs%s)\n\n",
              static_cast<unsigned long long>(calls), batch_size, reps,
              quick ? ", --quick" : "");

  std::vector<Scenario> scenarios;
  {
    Scenario s;
    s.name = "completion_getpid";
    s.read_only = true;
    s.calls = calls;
    s.baseline_mode = "lockstep";
    s.fast_mode = "pipelined";
    s.baseline = run_getpid(core::PipelineMode::kLockstep, calls, reps);
    s.fast = run_getpid(core::PipelineMode::kPipelined, calls, reps);
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "batched_read";
    s.read_only = true;
    s.calls = calls;
    s.baseline_mode = "per_call";
    s.fast_mode = "batched";
    s.baseline = run_read(false, calls, batch_size, reps);
    s.fast = run_read(true, calls, batch_size, reps);
    scenarios.push_back(std::move(s));
  }

  util::TextTable table;
  table.set_header({"scenario", "baseline us", "fast us", "baseline rounds", "fast rounds",
                    "async", "speedup"});
  for (std::size_t c = 1; c <= 6; ++c) table.align_right(c);
  for (const auto& s : scenarios) {
    table.add_row({s.name, util::format("%.0f", s.baseline.us), util::format("%.0f", s.fast.us),
                   std::to_string(s.baseline.report.syscall_rounds),
                   std::to_string(s.fast.report.syscall_rounds),
                   std::to_string(s.fast.report.async_completions),
                   util::format("%.2fx", s.speedup())});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: lockstep pays one fiber barrier round per call (the early variant\n"
      "parks, the last leads in place, the parked one resumes); the pipeline\n"
      "completes completion-class calls through a completion slot with no barrier,\n"
      "and coalesces same-class runs into one barrier round per batch.\n\n");

  const std::string json = to_json(scenarios, quick, calls, batch_size, reps);
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << json;
  out.close();
  std::printf("wrote %s (%zu bytes)\n", out_path.c_str(), json.size());

  // The acceptance claims, enforced in-bench so a regression fails CI even
  // before the checker parses the JSON.
  bool ok = true;
  for (const auto& s : scenarios) {
    if (!s.baseline.report.completed || !s.fast.report.completed) {
      ok = false;
      std::fprintf(stderr, "%s: run did not complete cleanly\n", s.name.c_str());
    }
    if (s.fast.report.syscall_rounds >= s.baseline.report.syscall_rounds) {
      ok = false;
      std::fprintf(stderr, "%s: fast path synchronized %llu rounds >= baseline %llu\n",
                   s.name.c_str(),
                   static_cast<unsigned long long>(s.fast.report.syscall_rounds),
                   static_cast<unsigned long long>(s.baseline.report.syscall_rounds));
    }
    if (s.read_only && s.speedup() < kReadonlySpeedupMin) {
      ok = false;
      std::fprintf(stderr, "%s: read-only speedup %.2fx below the %.1fx claim\n",
                   s.name.c_str(), s.speedup(), kReadonlySpeedupMin);
    }
  }
  std::printf("=> read-only scenarios >= %.1fx with fewer barrier rounds: %s\n",
              kReadonlySpeedupMin, ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
