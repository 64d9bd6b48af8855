#include "loop.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "fleet/jobs.h"
#include "host.h"
#include "load/workload.h"
#include "util/rng.h"

namespace fleetbench {

namespace fleet = nv::fleet;

namespace {

// Job counts come from these rates, not from the clock, so every run of a
// seed serves the same jobs however fast the program is.
constexpr Workload kWorkloads[] = {
    {"churn", 1, 1, 270.0, 135},
    {"spawn", 2, 2, 2300.0, 460},
    {"mix", 2, 4, 950.0, 0},
};

JobKind from_request(nv::load::RequestClass klass) {
  switch (klass) {
    case nv::load::RequestClass::kHttpSmall: return JobKind::kHttpSmall;
    case nv::load::RequestClass::kHttpHeavy: return JobKind::kHttpHeavy;
    case nv::load::RequestClass::kFtpTransfer: return JobKind::kFtp;
    case nv::load::RequestClass::kAttack: return JobKind::kAttack;
  }
  return JobKind::kHttpSmall;
}

fleet::FleetJob make_job(JobKind kind) {
  switch (kind) {
    case JobKind::kChurn: return fleet::jobs::uid_churn(100);
    case JobKind::kSpawn: return fleet::jobs::uid_churn(0);
    case JobKind::kHttpSmall:
      return fleet::jobs::httpd_request_stream({}, fleet::jobs::normal_browse(1));
    case JobKind::kHttpHeavy:
      return fleet::jobs::httpd_request_stream({}, fleet::jobs::normal_browse(5));
    case JobKind::kFtp:
      return fleet::jobs::ftpd_command_stream({}, fleet::jobs::ftp_normal_session());
    case JobKind::kAttack:
      return fleet::jobs::httpd_request_stream({}, fleet::jobs::uid_smash_attack());
  }
  return fleet::jobs::uid_churn(0);
}

/// Empty when `outcome` is right for `kind`: a benign job is ok() and left
/// its session in service; an attack was detected and quarantined.
std::string check_outcome(JobKind kind, const fleet::JobOutcome& outcome) {
  if (kind == JobKind::kAttack) {
    if (!outcome.report.attack_detected) return "attack not detected";
    if (!outcome.session_quarantined) return "attacked session not quarantined";
    return {};
  }
  if (!outcome.error.empty()) return "job error: " + outcome.error;
  if (outcome.report.alarm) return "benign job alarmed: " + outcome.report.alarm->describe();
  if (!outcome.ok()) return "benign job not ok";
  if (outcome.session_quarantined) return "benign job quarantined its session";
  if (!outcome.report.completed) return "variants did not all exit";
  for (const int code : outcome.report.exit_codes) {
    if (code != 0) return "variant exit code " + std::to_string(code);
  }
  return {};
}

/// The traced run's span around the production job body.
fleet::FleetJob stamped(fleet::FleetJob body, JobRecord& record) {
  return [body = std::move(body), &record](nv::core::NVariantSystem& system) {
    record.body_begin = Clock::now();
    nv::core::RunReport report = body(system);
    record.body_end = Clock::now();
    return report;
  };
}

}  // namespace

const char* to_string(JobKind kind) noexcept {
  switch (kind) {
    case JobKind::kChurn: return "churn";
    case JobKind::kSpawn: return "spawn";
    case JobKind::kHttpSmall: return "small";
    case JobKind::kHttpHeavy: return "heavy";
    case JobKind::kFtp: return "ftp";
    case JobKind::kAttack: return "attack";
  }
  return "?";
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& workload : kWorkloads) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

std::vector<JobKind> job_sequence(const Workload& workload, std::uint64_t seed,
                                  std::size_t count) {
  if (workload.attack_every > 0) {
    const JobKind job = workload.name == "churn" ? JobKind::kChurn : JobKind::kSpawn;
    std::vector<JobKind> kinds(count, job);
    for (std::size_t i = workload.attack_every - 1; i < count; i += workload.attack_every) {
      kinds[i] = JobKind::kAttack;
    }
    return kinds;
  }
  // mix: the load generator's class draws (default 70/25/5 weights) with 2%
  // of requests replaced by attacks.
  nv::load::WorkloadConfig config;
  config.seed = seed;
  config.attacker_fraction = 0.02;
  nv::util::Rng rng(seed);
  std::vector<JobKind> kinds;
  kinds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    kinds.push_back(from_request(nv::load::draw_request(config, rng).klass));
  }
  return kinds;
}

fleet::FleetConfig fleet_config(const Workload& workload, std::uint64_t seed) {
  fleet::FleetConfig config;
  config.spec.n_variants = 2;
  config.spec.variations = {"uid-xor"};
  config.pool_size = workload.lanes;
  config.seed = seed;
  return config;
}

ReadyFleet ready_fleet(const Workload& workload, std::uint64_t seed) {
  ReadyFleet ready;
  const auto begin = Clock::now();
  ready.fleet = std::make_unique<fleet::VariantFleet>(fleet_config(workload, seed));
  std::vector<std::future<fleet::JobOutcome>> warm;
  for (unsigned lane = 0; lane < workload.lanes; ++lane) {
    warm.push_back(ready.fleet->submit(make_job(JobKind::kSpawn)));
  }
  ready.warm_ok = true;
  for (auto& future : warm) {
    ready.warm_ok = check_outcome(JobKind::kSpawn, future.get()).empty() && ready.warm_ok;
  }
  ready.setup_s = std::chrono::duration<double>(Clock::now() - begin).count();
  return ready;
}

LoopResult run_closed_loop(fleet::VariantFleet& fleet, const std::vector<JobKind>& kinds,
                           unsigned clients, bool traced, std::size_t checkpoint_every) {
  LoopResult result;
  std::vector<JobRecord>& records = result.records;
  records.resize(kinds.size());
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> done{0};
  std::mutex checkpoint_mutex;
  result.checkpoints.reserve(kinds.size() / checkpoint_every + 1);  // no allocation in clients
  auto checkpoint = [&](std::size_t finished) {
    const Checkpoint point{Clock::now(), process_usage().cpu_s, finished};
    const std::lock_guard lock(checkpoint_mutex);
    result.checkpoints.push_back(point);
  };
  checkpoint(0);
  auto client = [&] {
    for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed); i < kinds.size();
         i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      JobRecord& record = records[i];
      record.kind = kinds[i];
      try {
        fleet::FleetJob job = make_job(record.kind);
        if (traced) job = stamped(std::move(job), record);
        record.submit_begin = Clock::now();
        std::future<fleet::JobOutcome> future = fleet.submit(std::move(job));
        record.submit_end = Clock::now();
        const fleet::JobOutcome outcome = future.get();
        record.delivered = Clock::now();
        record.job_id = outcome.job_id;
        record.session_id = outcome.session_id;
        record.rounds = outcome.report.syscall_rounds;
        record.batches = outcome.report.syscall_batches;
        record.async_calls = outcome.report.async_completions;
        record.wrong = check_outcome(record.kind, outcome);
      } catch (const std::exception& e) {
        record.delivered = Clock::now();
        record.wrong = std::string("job failed: ") + e.what();
      }
      const std::size_t finished = done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (finished % checkpoint_every == 0) checkpoint(finished);
    }
  };
  std::vector<std::jthread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) threads.emplace_back(client);
  threads.clear();  // joins
  std::sort(result.checkpoints.begin(), result.checkpoints.end(),
            [](const Checkpoint& a, const Checkpoint& b) { return a.done < b.done; });
  return result;
}

}  // namespace fleetbench
