// The benchmark's workloads and its closed-loop client threads.
//
// A workload is a fleet shape (lanes, closed-loop clients) and a fixed job
// sequence drawn from the seed. Every client submits one job, waits for its
// outcome, and only then takes the next job of the shared sequence, so a
// slow fleet receives less load and no queue grows without bound.
#ifndef FLEETBENCH_LOOP_H
#define FLEETBENCH_LOOP_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/fleet.h"

namespace fleetbench {

using Clock = std::chrono::steady_clock;

enum class JobKind : std::uint8_t {
  kChurn,      // jobs::uid_churn(100)
  kSpawn,      // jobs::uid_churn(0): launch, exit, join
  kHttpSmall,  // mini-httpd, 1 GET
  kHttpHeavy,  // mini-httpd, 5 GETs
  kFtp,        // mini-ftpd, one scripted session
  kAttack,     // mini-httpd, the User-Agent UID smash
};
inline constexpr std::size_t kJobKinds = 6;

[[nodiscard]] const char* to_string(JobKind kind) noexcept;

struct Workload {
  std::string_view name;
  unsigned lanes = 1;
  unsigned clients = 1;
  /// Jobs per second of --seconds. Fixes a run's job count independently of
  /// how fast the program is; chosen so a run measures about --seconds on a
  /// 4-vCPU x86-64 VM.
  double jobs_per_second = 1.0;
  /// churn and spawn: every this-many-th job is an attack, so detection and
  /// respawn are measured across the whole run. mix draws its own attacks.
  unsigned attack_every = 0;
};

/// churn, spawn or mix; nullptr for any other name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// The run's job sequence: `count` jobs, the same for the same seed.
[[nodiscard]] std::vector<JobKind> job_sequence(const Workload& workload, std::uint64_t seed,
                                                std::size_t count);

/// N=2, uid-xor, `lanes` lanes, diversity draws seeded from `seed`.
[[nodiscard]] nv::fleet::FleetConfig fleet_config(const Workload& workload, std::uint64_t seed);

/// A fleet built and warmed: every lane has served one exit-only job.
struct ReadyFleet {
  std::unique_ptr<nv::fleet::VariantFleet> fleet;
  double setup_s = 0.0;  // construction + warm-up, wall clock
  bool warm_ok = false;  // every warm-up outcome was correct
};
[[nodiscard]] ReadyFleet ready_fleet(const Workload& workload, std::uint64_t seed);

/// One job as the client saw it. Body stamps are set only in traced runs.
struct JobRecord {
  JobKind kind = JobKind::kChurn;
  Clock::time_point submit_begin{};
  Clock::time_point submit_end{};
  Clock::time_point body_begin{};
  Clock::time_point body_end{};
  Clock::time_point delivered{};
  std::uint64_t job_id = 0;
  std::uint64_t session_id = 0;
  std::uint64_t rounds = 0;
  std::uint64_t batches = 0;
  std::uint64_t async_calls = 0;
  /// Empty when the outcome is the one the job kind must produce.
  std::string wrong;
};

/// Wall clock and process CPU time once `done` outcomes have arrived.
struct Checkpoint {
  Clock::time_point at{};
  double cpu_s = 0.0;
  std::size_t done = 0;
};

struct LoopResult {
  std::vector<JobRecord> records;  // in sequence order
  /// One checkpoint before the first submit, then one after every
  /// `checkpoint_every` outcomes, in time order.
  std::vector<Checkpoint> checkpoints;
};

/// Serve `kinds` on `fleet` with `clients` closed-loop clients, one thread
/// each. A client stamps an outcome the moment its own future resolves, so
/// outcomes are taken in the order jobs finish. `traced` wraps every job
/// body in begin/end stamps.
[[nodiscard]] LoopResult run_closed_loop(nv::fleet::VariantFleet& fleet,
                                         const std::vector<JobKind>& kinds, unsigned clients,
                                         bool traced, std::size_t checkpoint_every);

[[nodiscard]] inline double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace fleetbench

#endif  // FLEETBENCH_LOOP_H
