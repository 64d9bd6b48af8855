// Allocation and throw regressions, counted by a global operator new and a
// __cxa_allocate_exception wrapper that this file defines (which is why it is
// a binary of its own):
//   - a rendezvous round allocates nothing on the monitor side: one run of K
//     calls and one of 2K on the same warmed-up session differ only by what
//     the K extra calls allocated;
//   - a job pays only for its simulated work: a whole uid_churn job allocates
//     the same at any round count, and a benign fleet job throws nothing,
//     since its guest ends by returning;
//   - a run pays nothing for file work that did not change: a path lookup
//     allocates nothing, and unchanged trusted files are not derived again;
//   - a web job pays only for the text it keeps: its parsers walk their
//     input in place, and a passwd lookup builds only the entry it returns;
//   - the fleet does not grow with the jobs it serves: recording a job's
//     latency and taking a snapshot allocate nothing, and an exit-only job
//     through the fleet makes a fixed number of allocations.
#include <dlfcn.h>
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>

#include "core/nvariant_system.h"
#include "fleet/fleet.h"
#include "fleet/jobs.h"
#include "fleet/session_factory.h"
#include "fleet/telemetry.h"
#include "fleet_test_harness.h"
#include "httpd/mini_ftpd.h"
#include "httpd/mini_httpd.h"
#include "variants/registry.h"
#include "vfs/passwd.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_throws{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every non-aligned form, so that a sanitizer runtime's own operator new is
// never paired with this file's delete, or the reverse.
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

// Every C++ throw first allocates its exception object here, so wrapping the
// C++ runtime's own allocator counts throws. The name is the runtime's.
// NOLINTNEXTLINE(bugprone-reserved-identifier)
extern "C" void* __cxa_allocate_exception(std::size_t size) noexcept {
  using Allocate = void* (*)(std::size_t) noexcept;
  static const auto next =
      reinterpret_cast<Allocate>(dlsym(RTLD_NEXT, "__cxa_allocate_exception"));
  g_throws.fetch_add(1, std::memory_order_relaxed);
  return next(size);
}

namespace nv {
namespace {

using core::NVariantSystem;
using core::RunReport;
using core::VariantBody;
using core::VariantConfig;
using vkernel::Process;
using vkernel::Sys;
using vkernel::SyscallArgs;
using vkernel::SyscallPort;
using vkernel::SyscallResult;

constexpr unsigned kCalls = 100;

/// A fleet session: N=2, uid-xor drawn by the factory.
std::unique_ptr<NVariantSystem> factory_session() {
  fleet::SessionFactory factory(fleet::SessionSpec{}, 1, variants::builtin_registry());
  auto session = factory.make_session();
  if (!session) throw std::runtime_error(session.error());
  return std::move(session->system);
}

struct Counted {
  std::uint64_t allocations = 0;
  std::uint64_t throws = 0;
  RunReport report;
};

/// Runs `job` on `system`, counting what it allocates and throws.
template <typename Job>
Counted counted(NVariantSystem& system, const Job& job) {
  Counted result;
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t throws = g_throws.load(std::memory_order_relaxed);
  result.report = job(system);
  result.allocations = g_allocations.load(std::memory_order_relaxed) - allocations;
  result.throws = g_throws.load(std::memory_order_relaxed) - throws;
  return result;
}

Counted counted_run(NVariantSystem& system, const VariantBody& body) {
  return counted(system, [&body](NVariantSystem& s) { return s.run(body); });
}

/// Runs `body` on `system` once with `calls` = 2K to warm the session up
/// (fiber stacks, result slots and scratch all reach their size for the
/// larger run), then with K and with 2K. Each of the K extra calls may
/// allocate at most `allowed_per_call` per variant. Returns the 2K report.
RunReport expect_flat(NVariantSystem& system, const VariantBody& body, unsigned& calls,
                      std::uint64_t allowed_per_call) {
  calls = 2 * kCalls;
  (void)counted_run(system, body);
  calls = kCalls;
  const Counted once = counted_run(system, body);
  calls = 2 * kCalls;
  const Counted twice = counted_run(system, body);
  const std::uint64_t allowed = std::uint64_t{kCalls} * system.n_variants() * allowed_per_call;
  EXPECT_LE(twice.allocations, once.allocations + allowed)
      << kCalls << " calls made " << once.allocations << " allocations and " << 2 * kCalls
      << " made " << twice.allocations;
  EXPECT_TRUE(once.report.completed);
  EXPECT_TRUE(twice.report.completed);
  EXPECT_FALSE(twice.report.attack_detected);
  return twice.report;
}

RunReport expect_flat(const VariantBody& body, unsigned& calls, std::uint64_t allowed_per_call) {
  auto system = factory_session();
  return expect_flat(*system, body, calls, allowed_per_call);
}

TEST(RoundAllocations, BarrierCallAllocatesNothing) {
  // One call, built once and sent K times: a full lockstep round each. The
  // seteuid executes in every variant; the getpid executes once and its
  // result is replicated.
  for (const Sys no : {Sys::kSeteuid, Sys::kGetpid}) {
    SCOPED_TRACE(std::string(vkernel::sys_name(no)));
    unsigned calls = 0;
    unsigned failed = 0;
    const VariantBody body = [&](unsigned, SyscallPort& port, Process&,
                                 const VariantConfig& config) {
      SyscallArgs args;
      args.no = no;
      if (no == Sys::kSeteuid) args.ints = {config.uid_coder->reexpress(1000)};
      for (unsigned i = 0; i < calls; ++i) failed += port.syscall(args).ok() ? 0 : 1;
    };
    const RunReport report = expect_flat(body, calls, 0);
    EXPECT_EQ(failed, 0u);
    EXPECT_EQ(report.syscall_rounds, 2 * kCalls + 1);  // and the exit
  }
}

TEST(RoundAllocations, DetectionPairAllocatesNothing) {
  // uid_value then cc_cmp, each built once and sent K times: two rounds per
  // pair, and neither allocates.
  unsigned calls = 0;
  unsigned wrong = 0;
  const VariantBody body = [&](unsigned, SyscallPort& port, Process&,
                               const VariantConfig& config) {
    const std::uint64_t worker = config.uid_coder->reexpress(1000);
    SyscallArgs uid_value;
    uid_value.no = Sys::kUidValue;
    uid_value.ints = {worker};
    SyscallArgs not_root;
    not_root.no = Sys::kCcCmp;
    not_root.ints = {static_cast<std::uint64_t>(vkernel::CcOp::kNeq), worker,
                     config.uid_coder->reexpress(0)};
    for (unsigned i = 0; i < calls; ++i) {
      const SyscallResult value = port.syscall(uid_value);
      const SyscallResult verdict = port.syscall(not_root);
      wrong += value.value == worker && verdict.value == 1 ? 0 : 1;
    }
  };
  const RunReport report = expect_flat(body, calls, 0);
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(report.syscall_rounds, 2 * 2 * kCalls + 1);  // and the exit
}

TEST(RoundAllocations, StatRoundAllocatesNothing) {
  // A stat of a shared file executes once, and its result, six inline ints,
  // is replicated; one of an unshared file is redirected per variant (§3.4)
  // in the round's scratch.
  auto system = factory_session();
  httpd::install_default_site(system->fs());
  for (const std::string_view path : {"/var/www/index.html", "/etc/passwd"}) {
    SCOPED_TRACE(std::string(path));
    unsigned calls = 0;
    unsigned failed = 0;
    const VariantBody body = [&](unsigned, SyscallPort& port, Process&, const VariantConfig&) {
      SyscallArgs args;
      args.no = Sys::kStat;
      args.str = path;
      for (unsigned i = 0; i < calls; ++i) {
        const SyscallResult result = port.syscall(args);
        failed += result.ok() && result.out_ints.size() == 6 ? 0 : 1;
      }
    };
    const RunReport report = expect_flat(*system, body, calls, 0);
    EXPECT_EQ(failed, 0u);
    EXPECT_EQ(report.syscall_rounds, 2 * kCalls + 1);  // and the exit
  }
}

/// What a whole fleet job costs on a warmed-up factory session.
Counted counted_job(const fleet::FleetJob& job) {
  auto system = factory_session();
  (void)job(*system);
  return counted(*system, job);
}

TEST(JobAllocations, UidChurnJobAllocatesTheSameAtAnyRoundCount) {
  // Every call's arguments are inline and the guest ends by returning, so
  // what a job allocates is its session's per-run setup alone.
  auto system = factory_session();
  (void)fleet::jobs::uid_churn(2 * kCalls)(*system);
  const Counted once = counted(*system, fleet::jobs::uid_churn(kCalls));
  const Counted twice = counted(*system, fleet::jobs::uid_churn(2 * kCalls));
  EXPECT_EQ(once.allocations, twice.allocations);
  EXPECT_TRUE(once.report.completed);
  EXPECT_TRUE(twice.report.completed);
  EXPECT_EQ(twice.report.syscall_rounds, 5 * 2 * kCalls + 1);
}

TEST(JobThrows, BenignJobsThrowNothing) {
  const struct {
    const char* name;
    fleet::FleetJob job;
  } kJobs[] = {
      {"uid_churn", fleet::jobs::uid_churn(kCalls)},
      {"one-GET httpd",
       fleet::jobs::httpd_request_stream({}, fleet::jobs::normal_browse(1))},
      {"ftp session",
       fleet::jobs::ftpd_command_stream({}, fleet::jobs::ftp_normal_session())},
  };
  // The counter sees a throw in this build.
  const std::uint64_t before = g_throws.load(std::memory_order_relaxed);
  try {
    throw std::runtime_error("counted");
  } catch (const std::runtime_error&) {
  }
  ASSERT_EQ(g_throws.load(std::memory_order_relaxed) - before, 1u);

  for (const auto& [name, job] : kJobs) {
    SCOPED_TRACE(name);
    const Counted run = counted_job(job);
    EXPECT_EQ(run.throws, 0u);
    EXPECT_TRUE(run.report.completed);
    EXPECT_FALSE(run.report.attack_detected);
  }
}

TEST(JobThrows, AnAttackStillAlarmsAndQuarantines) {
  fleet::FleetConfig config;
  config.pool_size = 1;
  config.seed = 1;
  fleet::VariantFleet fleet(config);
  const fleet::JobOutcome outcome =
      fleet.submit(fleet::jobs::httpd_request_stream({}, fleet::jobs::uid_smash_attack())).get();
  EXPECT_TRUE(outcome.report.attack_detected);
  EXPECT_TRUE(outcome.session_quarantined);
}

TEST(TextAllocations, ServerJobsStayUnderTheirCeilings) {
  // Ceilings for a warm session. Before the parsers walked their text in
  // place, these jobs made 338, 576 and 209 allocations.
  const struct {
    const char* name;
    fleet::FleetJob job;
    std::uint64_t ceiling;
  } kJobs[] = {
      {"one-GET httpd", fleet::jobs::httpd_request_stream({}, fleet::jobs::normal_browse(1)),
       120},
      {"five-GET httpd", fleet::jobs::httpd_request_stream({}, fleet::jobs::normal_browse(5)),
       230},
      {"ftp session", fleet::jobs::ftpd_command_stream({}, fleet::jobs::ftp_normal_session()),
       130},
  };
  for (const auto& [name, job, ceiling] : kJobs) {
    SCOPED_TRACE(name);
    const Counted run = counted_job(job);
    EXPECT_LE(run.allocations, ceiling);
    EXPECT_TRUE(run.report.completed);
    EXPECT_FALSE(run.report.attack_detected);
  }
}

TEST(TextAllocations, FindUserBuildsOnlyTheEntryItReturns) {
  // A 100-line passwd: a lookup of its first user allocates what one of its
  // last does, since the lines before the match are read in place. The gecos
  // and home fields are too long for a short-string buffer, so building an
  // entry for every line would show.
  std::string passwd;
  for (int i = 0; i < 100; ++i) {
    const std::string id = std::to_string(1000 + i);
    passwd += "user" + id + ":x:" + id + ":" + id + ":User number " + id +
              " of a hundred:/home/users/user" + id + ":/bin/sh\n";
  }
  const auto allocations_of = [&passwd](std::string_view name) {
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const auto entry = vfs::find_user(passwd, name);
    const std::uint64_t made = g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_TRUE(entry.has_value()) << name;
    return made;
  };
  const std::uint64_t first = allocations_of("user1000");
  const std::uint64_t last = allocations_of("user1099");
  EXPECT_EQ(first, last);
  EXPECT_LE(last, 4u) << "at most the entry's four strings";
}

TEST(FileAllocations, LookupAndStatOfAnExistingPathAllocateNothing) {
  vfs::FileSystem fs;
  httpd::install_default_site(fs);
  for (const std::string_view path : {"/etc/passwd", "/var/www//secret/./key.txt"}) {
    SCOPED_TRACE(std::string(path));
    std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const bool found = fs.lookup(path).has_value();
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u) << "lookup";
    before = g_allocations.load(std::memory_order_relaxed);
    const bool stated = fs.stat(path).has_value();
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u) << "stat";
    EXPECT_TRUE(found);
    EXPECT_TRUE(stated);
  }
}

TEST(FileAllocations, ExitOnlyRunPaysNothingForAnUnchangedSite) {
  // An httpd job installs its site before every run. Once the first run has
  // derived the passwd and group copies, an identical reinstall changes no
  // file, so the run allocates what a run on a session with no /etc does.
  const VariantBody exit_only = [](unsigned, SyscallPort&, Process&, const VariantConfig&) {};
  auto site = factory_session();
  auto bare = factory_session();
  httpd::install_default_site(site->fs());
  ASSERT_TRUE(site->run(exit_only).completed);
  ASSERT_TRUE(bare->run(exit_only).completed);

  httpd::install_default_site(site->fs());
  const Counted with_site = counted_run(*site, exit_only);
  const Counted without_etc = counted_run(*bare, exit_only);
  EXPECT_TRUE(with_site.report.completed);
  EXPECT_TRUE(without_etc.report.completed);
  EXPECT_EQ(with_site.allocations, without_etc.allocations);
}

TEST(FleetAllocations, RecordingLatenciesAllocatesNothing) {
  fleet::FleetTelemetry telemetry(2);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 1'000'000; ++i) {
    telemetry.record_latency(static_cast<unsigned>(i % 2), (i * 7919) % 1'000'000);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(telemetry.snapshot().latency_count, 1'000'000u);
}

TEST(FleetAllocations, ASnapshotAllocatesTheSameAfter10RecordsAsAfter1M) {
  fleet::FleetTelemetry telemetry(2);
  const auto snapshot_allocations = [&telemetry] {
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const fleet::FleetSnapshot snap = telemetry.snapshot();
    const std::uint64_t made = g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_GT(snap.latency_count, 0u);
    return made;
  };
  std::uint64_t recorded = 0;
  for (; recorded < 10; ++recorded) {
    telemetry.record_latency(static_cast<unsigned>(recorded % 2), recorded * 37);
  }
  const std::uint64_t after_10 = snapshot_allocations();
  for (; recorded < 1'000'000; ++recorded) {
    telemetry.record_latency(static_cast<unsigned>(recorded % 2), (recorded * 7919) % 1'000'000);
  }
  const std::uint64_t after_1m = snapshot_allocations();
  EXPECT_EQ(after_10, after_1m);
  EXPECT_EQ(after_1m, 0u);
}

TEST(FleetAllocations, AnExitOnlyFleetJobMakesAtMost12Allocations) {
  // Everything a job costs on both sides of the fleet: the submitter's
  // admission and future, the worker's run and the job's outcome. What the
  // fleet keeps per job is fixed in size, so the average holds at any count.
  fleet::FleetConfig config;
  config.pool_size = 1;
  config.seed = 1;
  fleet::VariantFleet fleet(config);
  const fleet::FleetJob job = fleet::jobs::uid_churn(0);
  // The worker readies its next job slot after it hands an outcome back,
  // racing the submitter's read of the counter: count from a parked worker
  // to a parked worker, so the window holds exactly kJobs turns of its loop.
  const auto parked = [&fleet] { return fleet.idle_snapshot().idle_workers == 1; };
  for (int i = 0; i < 1'000; ++i) ASSERT_TRUE(fleet.submit(job).get().ok());
  constexpr std::uint64_t kJobs = 10'000;
  ASSERT_TRUE(fleet::harness::wait_until(parked));
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < kJobs; ++i) ASSERT_TRUE(fleet.submit(job).get().ok());
  ASSERT_TRUE(fleet::harness::wait_until(parked));
  const std::uint64_t made = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_LE(made, 12 * kJobs) << static_cast<double>(made) / kJobs << " allocations per job";
}

}  // namespace
}  // namespace nv
