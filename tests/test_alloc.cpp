// Allocation regression for the syscall round: a rendezvous round allocates
// nothing on the monitor side. A counting global operator new (which is why
// this file is a binary of its own) counts one run of K calls and one of 2K
// on the same warmed-up session; the difference is what the K extra calls
// allocated.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>

#include "core/nvariant_system.h"
#include "fleet/session_factory.h"
#include "variants/registry.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

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
  RunReport report;
};

Counted counted_run(NVariantSystem& system, const VariantBody& body) {
  Counted counted;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  counted.report = system.run(body);
  counted.allocations = g_allocations.load(std::memory_order_relaxed) - before;
  return counted;
}

/// Runs `body` once with `calls` = 2K to warm the session up (fiber stacks,
/// result slots and scratch all reach their size for the larger run), then
/// with K and with 2K. Each of the K extra calls may
/// allocate at most `allowed_per_call` per variant. Returns the 2K report.
RunReport expect_flat(const VariantBody& body, unsigned& calls, std::uint64_t allowed_per_call) {
  auto system = factory_session();
  calls = 2 * kCalls;
  (void)counted_run(*system, body);
  calls = kCalls;
  const Counted once = counted_run(*system, body);
  calls = 2 * kCalls;
  const Counted twice = counted_run(*system, body);
  const std::uint64_t allowed = std::uint64_t{kCalls} * system->n_variants() * allowed_per_call;
  EXPECT_LE(twice.allocations, once.allocations + allowed)
      << kCalls << " calls made " << once.allocations << " allocations and " << 2 * kCalls
      << " made " << twice.allocations;
  EXPECT_TRUE(once.report.completed);
  EXPECT_TRUE(twice.report.completed);
  EXPECT_FALSE(twice.report.attack_detected);
  return twice.report;
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

}  // namespace
}  // namespace nv
