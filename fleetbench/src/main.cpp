// fleetbench: a real VariantFleet (N=2, uid-xor) on the real clock, confined
// to one CPU, serving a fixed seeded job sequence in a closed loop.
//
//   fleetbench --workload churn|spawn|mix --seed N --seconds S --trace 0|1
//              [--spans FILE]
//
// --trace 0 serves the whole sequence and prints the end-to-end metrics.
// --trace 1 serves the first half of the sequence twice, once with spans
// around each call into a layer and once without, runs the per-layer probes,
// prints the per-layer metrics, and writes the spans to FILE. Detail lines
// come first; the last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit status is 0 only when every outcome was correct. See README.md.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "host.h"
#include "loop.h"
#include "probes.h"
#include "util/stats.h"

namespace {

using namespace fleetbench;  // NOLINT
using nv::fleet::VariantFleet;
using nv::util::Samples;

// setup_s is the median of this many cold fleet constructions.
constexpr int kSetupTrials = 41;
// The untraced run is cut into this many windows of equal outcome counts;
// its figures are per-window quartiles (see WindowQuartiles).
constexpr std::size_t kWindows = 200;
// The traced run serves its jobs in this many chunks, each once untraced and
// once traced (alternating which goes first), so the tracing overhead
// compares the same jobs served at nearly the same time.
constexpr std::size_t kTraceChunks = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args.seconds > 0 && args.seconds <= 600;
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      have_trace = args.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_seed || !have_seconds || !have_trace) {
    return std::nullopt;
  }
  return args;
}

/// FNV-1a over the job kinds: one number that names a sequence.
std::uint64_t sequence_hash(const std::vector<JobKind>& kinds) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const JobKind kind : kinds) {
    hash = (hash ^ static_cast<std::uint64_t>(kind)) * 0x100000001b3ULL;
  }
  return hash;
}

/// Jobs served in one or more closed-loop stretches, and what they cost.
struct Measured {
  std::vector<JobRecord> jobs;
  std::vector<Checkpoint> checkpoints;  // of the last stretch served
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t voluntary_cs = 0;
  std::uint64_t involuntary_cs = 0;
  CpuTicks ticks;  // the pinned CPU's tick deltas

  [[nodiscard]] double jobs_per_s() const { return static_cast<double>(jobs.size()) / wall_s; }
};

/// Serve `kinds` on `fleet` and add the jobs and their cost to `into`.
void measure(VariantFleet& fleet, const std::vector<JobKind>& kinds, unsigned clients,
             bool traced, int cpu, Measured& into) {
  const ProcessUsage usage_before = process_usage();
  const std::optional<CpuTicks> ticks_before = cpu_ticks(cpu);
  const auto begin = Clock::now();
  LoopResult loop = run_closed_loop(fleet, kinds, clients, traced,
                                    std::max<std::size_t>(1, kinds.size() / kWindows));
  const auto end = Clock::now();
  const std::optional<CpuTicks> ticks_after = cpu_ticks(cpu);
  const ProcessUsage usage_after = process_usage();

  into.jobs.insert(into.jobs.end(), loop.records.begin(), loop.records.end());
  into.checkpoints = std::move(loop.checkpoints);
  into.wall_s += std::chrono::duration<double>(end - begin).count();
  into.cpu_s += usage_after.cpu_s - usage_before.cpu_s;
  into.voluntary_cs += usage_after.voluntary_cs - usage_before.voluntary_cs;
  into.involuntary_cs += usage_after.involuntary_cs - usage_before.involuntary_cs;
  if (ticks_before && ticks_after) {
    into.ticks.total += ticks_after->total - ticks_before->total;
    into.ticks.steal += ticks_after->steal - ticks_before->steal;
  }
}

/// A fleet's final telemetry, taken after shutdown.
struct Closing {
  nv::fleet::FleetSnapshot snapshot;
  bool accounting_ok = false;  // submitted == completed + alarmed + errors
};

Closing close_fleet(VariantFleet& fleet) {
  Closing closing;
  fleet.shutdown();
  closing.snapshot = fleet.telemetry().snapshot();
  const auto& s = closing.snapshot;
  closing.accounting_ok = s.jobs_submitted == s.jobs_completed + s.jobs_alarmed + s.job_errors;
  return closing;
}

/// Wrong outcomes among `records`; prints the first few.
std::uint64_t count_wrong(const std::vector<JobRecord>& records, const char* label) {
  std::uint64_t wrong = 0;
  for (const JobRecord& record : records) {
    if (record.wrong.empty()) continue;
    if (++wrong <= 5) {
      std::printf("WRONG %s job=%" PRIu64 " kind=%s: %s\n", label, record.job_id,
                  to_string(record.kind), record.wrong.c_str());
    }
  }
  return wrong;
}

/// Wrong outcomes of a whole fleet run: warm-up, sequence, accounting.
std::uint64_t count_wrong(bool warm_ok, const Measured& measured, const Closing& closing) {
  std::uint64_t wrong = count_wrong(measured.jobs, "sequence");
  if (!warm_ok) {
    ++wrong;
    std::printf("WRONG a warm-up job failed\n");
  }
  if (!closing.accounting_ok) {
    ++wrong;
    const auto& s = closing.snapshot;
    std::printf("WRONG jobs_submitted=%" PRIu64 " != completed %" PRIu64 " + alarmed %" PRIu64
                " + errors %" PRIu64 "\n",
                s.jobs_submitted, s.jobs_completed, s.jobs_alarmed, s.job_errors);
  }
  return wrong;
}

/// Submit-to-delivery latency in ms of the attacks, or of the benign jobs.
Samples latency_ms(const std::vector<JobRecord>& records, bool attacks) {
  Samples samples;
  for (const JobRecord& record : records) {
    if ((record.kind == JobKind::kAttack) != attacks) continue;
    samples.add(micros(record.delivered - record.submit_begin) / 1000.0);
  }
  return samples;
}

void print_measured(const char* label, const Measured& m) {
  std::uint64_t ok = 0, attacks = 0;
  for (const JobRecord& record : m.jobs) {
    if (record.wrong.empty()) ++(record.kind == JobKind::kAttack ? attacks : ok);
  }
  std::printf("%s: sent=%zu ok=%" PRIu64 " attacks_caught=%" PRIu64 " failed=%" PRIu64
              " wall_s=%.4f cpu_s=%.4f busy=%.3f\n",
              label, m.jobs.size(), ok, attacks, m.jobs.size() - ok - attacks, m.wall_s, m.cpu_s,
              m.cpu_s / m.wall_s);
  std::printf("%s noise: steal_pct=%.2f voluntary_cs=%" PRIu64 " involuntary_cs=%" PRIu64 "\n",
              label, steal_pct(CpuTicks{}, m.ticks), m.voluntary_cs, m.involuntary_cs);
}

void print_closing(const Closing& closing) {
  const auto& s = closing.snapshot;
  std::printf("fleet: submitted=%" PRIu64 " completed=%" PRIu64 " alarmed=%" PRIu64
              " errors=%" PRIu64 " quarantined=%" PRIu64 " respawned=%" PRIu64 " stolen=%" PRIu64
              " campaign_alerts=%" PRIu64 " queue_high_watermark=%" PRIu64 "\n",
              s.jobs_submitted, s.jobs_completed, s.jobs_alarmed, s.job_errors,
              s.sessions_quarantined, s.sessions_respawned, s.jobs_stolen, s.campaign_alerts,
              s.queue_high_watermark);
}

/// Per-window figures of a run, each reported at its quartile on the slow
/// side: the throughput three windows in four reach, and the CPU per job and
/// latencies three windows in four stay under. The host's speed changes under
/// the benchmark (see README.md, "Host noise"): whole-run figures follow the
/// share of the run the host happened to be fast and spread by 15-40%
/// between runs. The slow-side quartile of 200 windows is slow-host time in
/// almost every run, and a change to the program moves it as it moves the
/// whole run.
struct WindowQuartiles {
  double jobs_per_s = 0.0;      // 25th percentile of window throughput
  double cpu_ms_per_job = 0.0;  // 75th percentile of window CPU per job
  double latency_p50_ms = 0.0;  // 75th percentile of window median benign latency
  double latency_p90_ms = 0.0;  // 75th percentile of window p90 benign latency
  std::size_t windows = 0;
};

WindowQuartiles window_quartiles(const Measured& run) {
  std::vector<const JobRecord*> benign;
  for (const JobRecord& record : run.jobs) {
    if (record.kind != JobKind::kAttack) benign.push_back(&record);
  }
  std::sort(benign.begin(), benign.end(), [](const JobRecord* a, const JobRecord* b) {
    return a->delivered < b->delivered;
  });
  Samples rate, cpu_ms, p50, p90;
  auto next = benign.begin();
  const auto& cps = run.checkpoints;
  for (std::size_t k = 0; k + 1 < cps.size(); ++k) {
    const double wall_s = std::chrono::duration<double>(cps[k + 1].at - cps[k].at).count();
    const auto jobs = static_cast<double>(cps[k + 1].done - cps[k].done);
    rate.add(jobs / wall_s);
    cpu_ms.add(1000.0 * (cps[k + 1].cpu_s - cps[k].cpu_s) / jobs);
    Samples latency;
    for (; next != benign.end() && (*next)->delivered <= cps[k + 1].at; ++next) {
      latency.add(micros((*next)->delivered - (*next)->submit_begin) / 1000.0);
    }
    if (latency.count() == 0) continue;
    p50.add(latency.percentile(50));
    p90.add(latency.percentile(90));
  }
  WindowQuartiles q;
  q.windows = rate.count();
  q.jobs_per_s = rate.percentile(25);
  q.cpu_ms_per_job = cpu_ms.percentile(75);
  q.latency_p50_ms = p50.percentile(75);
  q.latency_p90_ms = p90.percentile(75);
  return q;
}

class Report {
 public:
  void add(const char* name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }

  /// Prints the result line; returns the exit status.
  int finish(std::uint64_t attempted, std::uint64_t failed) const {
    for (const Metric& metric : metrics_) {
      if (!std::isfinite(metric.value)) {
        std::printf("WRONG metric %s is not finite\n", metric.name);
        ++failed;
      }
    }
    const bool correct = failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i == 0 ? "" : ", ", m.name,
                  std::isfinite(m.value) ? m.value : 0.0, m.unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

 private:
  struct Metric {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
};

int run_untraced(const Workload& workload, const Args& args, const std::vector<JobKind>& kinds,
                 int cpu, std::uint64_t failed) {
  Samples setup;
  for (int i = 0; i < kSetupTrials; ++i) {
    const ReadyFleet trial = ready_fleet(workload, args.seed);
    setup.add(trial.setup_s);
    if (!trial.warm_ok) {
      ++failed;
      std::printf("WRONG setup trial %d: a warm-up job failed\n", i);
    }
  }

  ReadyFleet ready = ready_fleet(workload, args.seed);
  const double handoff_before = handoff_round_trip_us();
  Measured run;
  measure(*ready.fleet, kinds, workload.clients, false, cpu, run);
  const double handoff_after = handoff_round_trip_us();
  const Closing closing = close_fleet(*ready.fleet);
  failed += count_wrong(ready.warm_ok, run, closing);

  print_measured("run", run);
  std::printf("run noise: handoff_us_before=%.3f handoff_us_after=%.3f\n", handoff_before,
              handoff_after);
  print_closing(closing);
  const Samples benign = latency_ms(run.jobs, false);
  const Samples attacks = latency_ms(run.jobs, true);
  const WindowQuartiles windows = window_quartiles(run);
  std::printf("whole run: jobs_per_s=%.4f latency_p50_ms=%.5f latency_p90_ms=%.5f "
              "cpu_ms_per_job=%.5f\n",
              run.jobs_per_s(), benign.percentile(50), benign.percentile(90),
              1000.0 * run.cpu_s / static_cast<double>(run.jobs.size()));
  std::printf("samples: windows=%zu latency=%zu attack=%zu setup_trials=%zu\n",
              windows.windows, benign.count(), attacks.count(), setup.count());

  Report report;
  report.add("jobs_per_s", windows.jobs_per_s, "jobs/s");
  report.add("latency_p50_ms", windows.latency_p50_ms, "ms");
  report.add("latency_p90_ms", windows.latency_p90_ms, "ms");
  report.add("cpu_ms_per_job", windows.cpu_ms_per_job, "ms");
  report.add("max_rss_mb", process_usage().max_rss_mib, "MiB");
  report.add("setup_s", setup.median(), "s");
  report.add("attack_p50_ms", attacks.median(), "ms");
  return report.finish(run.jobs.size(), failed);
}

/// Median of `field(record)` over the records `keep` selects.
template <typename Keep, typename Field>
double median_of(const std::vector<JobRecord>& records, Keep keep, Field field) {
  Samples samples;
  for (const JobRecord& record : records) {
    if (keep(record)) samples.add(field(record));
  }
  return samples.median();
}

/// The traced jobs' spans, keyed by fleet job id, times in µs from `origin`.
bool write_spans(const std::string& path, Clock::time_point origin,
                 const std::vector<JobRecord>& records) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  auto at = [origin](Clock::time_point t) { return micros(t - origin); };
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JobRecord& r = records[i];
    std::fprintf(out,
                 "{\"job\": %" PRIu64 ", \"session\": %" PRIu64 ", \"kind\": \"%s\", "
                 "\"submit_begin_us\": %.3f, \"submit_end_us\": %.3f, \"body_begin_us\": %.3f, "
                 "\"body_end_us\": %.3f, \"delivered_us\": %.3f, \"rounds\": %" PRIu64
                 ", \"batches\": %" PRIu64 ", \"async\": %" PRIu64 ", \"ok\": %s}%s\n",
                 r.job_id, r.session_id, to_string(r.kind), at(r.submit_begin),
                 at(r.submit_end), at(r.body_begin), at(r.body_end), at(r.delivered), r.rounds,
                 r.batches, r.async_calls, r.wrong.empty() ? "true" : "false",
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  return std::fclose(out) == 0;
}

int run_traced(const Workload& workload, const Args& args, const std::vector<JobKind>& kinds,
               int cpu, std::uint64_t failed) {
  ReadyFleet ready = ready_fleet(workload, args.seed);
  const auto origin = Clock::now();
  const std::size_t half = kinds.size() / 2;
  Measured plain, traced;
  for (std::size_t c = 0; c < kTraceChunks; ++c) {
    const auto first = kinds.begin() + static_cast<std::ptrdiff_t>(half * c / kTraceChunks);
    const auto last = kinds.begin() + static_cast<std::ptrdiff_t>(half * (c + 1) / kTraceChunks);
    const std::vector<JobKind> chunk(first, last);
    for (const bool trace_it : {c % 2 == 1, c % 2 == 0}) {
      measure(*ready.fleet, chunk, workload.clients, trace_it, cpu, trace_it ? traced : plain);
    }
  }
  const Closing closing = close_fleet(*ready.fleet);
  failed += count_wrong(ready.warm_ok, plain, closing) + count_wrong(traced.jobs, "traced");
  print_measured("untraced", plain);
  print_measured("traced", traced);
  print_closing(closing);

  const ProbeResults probes = run_probes(fleet_config(workload, args.seed).spec, args.seed);
  failed += probes.failed;
  if (probes.failed > 0) std::printf("WRONG probe: %s\n", probes.first_failure.c_str());
  std::printf("probes: checks=%" PRIu64 " failed=%" PRIu64 "\n", probes.checks, probes.failed);

  const std::vector<JobRecord>& spans = traced.jobs;
  if (!args.spans.empty()) {
    if (write_spans(args.spans, origin, spans)) {
      std::printf("spans: %s\n", args.spans.c_str());
    } else {
      ++failed;
      std::printf("WRONG could not write spans to %s\n", args.spans.c_str());
    }
  }

  auto benign = [](const JobRecord& r) { return r.kind != JobKind::kAttack; };
  auto attack = [](const JobRecord& r) { return r.kind == JobKind::kAttack; };
  auto any = [](const JobRecord&) { return true; };
  auto body_us = [](const JobRecord& r) { return micros(r.body_end - r.body_begin); };
  auto finish_us = [](const JobRecord& r) { return micros(r.delivered - r.body_end); };
  for (std::size_t k = 0; k < kJobKinds; ++k) {
    const auto kind = static_cast<JobKind>(k);
    const double body = median_of(
        spans, [kind](const JobRecord& r) { return r.kind == kind; }, body_us);
    if (body > 0) std::printf("core.job_body_us[%s]=%.3f\n", to_string(kind), body);
  }

  Samples queue_wait;
  double rounds = 0, batches = 0, async_calls = 0, benign_jobs = 0;
  for (const JobRecord& r : traced.jobs) {
    queue_wait.add(micros(r.body_begin - r.submit_end));
    if (!benign(r)) continue;
    rounds += static_cast<double>(r.rounds);
    batches += static_cast<double>(r.batches);
    async_calls += static_cast<double>(r.async_calls);
    ++benign_jobs;
  }

  const auto& s = closing.snapshot;
  Report report;
  report.add("fleet.submit_us",
             median_of(traced.jobs, any,
                       [](const JobRecord& r) { return micros(r.submit_end - r.submit_begin); }),
             "us");
  report.add("fleet.queue_wait_p50_us", queue_wait.percentile(50), "us");
  report.add("fleet.queue_wait_p90_us", queue_wait.percentile(90), "us");
  report.add("fleet.finish_us", median_of(traced.jobs, benign, finish_us), "us");
  report.add("fleet.quarantine_us", median_of(spans, attack, finish_us), "us");
  report.add("fleet.jobs_stolen", static_cast<double>(s.jobs_stolen), "count");
  report.add("fleet.queue_high_watermark", static_cast<double>(s.queue_high_watermark), "count");
  report.add("fleet.sessions_respawned", static_cast<double>(s.sessions_respawned), "count");
  report.add("fleet.campaign_alerts", static_cast<double>(s.campaign_alerts), "count");
  report.add("core.job_body_us", median_of(traced.jobs, benign, body_us), "us");
  report.add("core.rounds_per_job", rounds / benign_jobs, "count");
  report.add("core.batches_per_job", batches / benign_jobs, "count");
  report.add("core.async_per_job", async_calls / benign_jobs, "count");
  report.add("core.run_exit_us", probes.run_exit_us, "us");
  report.add("core.barrier_call_us", probes.barrier_call_us, "us");
  report.add("core.async_call_us", probes.async_call_us, "us");
  report.add("vkernel.plain_call_us", probes.plain_call_us, "us");
  report.add("session_factory.make_session_us", probes.make_session_us, "us");
  report.add("httpd.launch_to_bound_us", probes.launch_to_bound_us, "us");
  report.add("httpd.get_us", probes.get_us, "us");
  report.add("httpd.stop_us", probes.stop_us, "us");
  report.add("trace_overhead_pct", 100.0 * (plain.jobs_per_s() / traced.jobs_per_s() - 1.0),
             "%");
  return report.finish(plain.jobs.size() + traced.jobs.size() + probes.checks, failed);
}

}  // namespace

int main(int argc, char** argv) {
  // Before any thread exists, so every fleet, variant and client thread
  // inherits the one-CPU mask.
  const HostFacts facts = pin_to_one_cpu();

  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: fleetbench --workload churn|spawn|mix --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n");
    return 2;
  }
  const Workload* workload = find_workload(args->workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "fleetbench: unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  if (facts.cpu < 0) {
    std::fprintf(stderr, "fleetbench: could not confine the process to one CPU\n");
    return 1;
  }
  std::printf("host: cpu=%d nproc=%u online=%u compiler=\"%s\" build=%s\n", facts.cpu,
              facts.allowed_cpus, facts.online_cpus, facts.compiler.c_str(),
              facts.build_type.c_str());

  const auto count = std::max<std::size_t>(
      workload->clients * 2 * kTraceChunks,
      static_cast<std::size_t>(std::llround(args->seconds * workload->jobs_per_second)));
  const std::vector<JobKind> kinds = job_sequence(*workload, args->seed, count);
  std::uint64_t failed = 0;
  if (job_sequence(*workload, args->seed, count) != kinds) {
    ++failed;
    std::printf("WRONG seed %" PRIu64 " drew two different job sequences\n", args->seed);
  }
  std::size_t per_kind[kJobKinds] = {};
  for (const JobKind kind : kinds) ++per_kind[static_cast<std::size_t>(kind)];
  std::printf("workload=%s seed=%" PRIu64 " lanes=%u clients=%u jobs=%zu sequence=%016" PRIx64,
              args->workload.c_str(), args->seed, workload->lanes, workload->clients, count,
              sequence_hash(kinds));
  for (std::size_t k = 0; k < kJobKinds; ++k) {
    if (per_kind[k] > 0) std::printf(" %s=%zu", to_string(static_cast<JobKind>(k)), per_kind[k]);
  }
  std::printf("\n");

  return args->trace ? run_traced(*workload, *args, kinds, facts.cpu, failed)
                     : run_untraced(*workload, *args, kinds, facts.cpu, failed);
}
