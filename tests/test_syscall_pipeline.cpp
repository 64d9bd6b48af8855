// The async/batched syscall pipeline at system level: batch coalescing and
// class-boundary splits, whole-batch abort semantics, pipelined-vs-lockstep
// equivalence, and golden-trace determinism for batched runs.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/nvariant_system.h"
#include "fleet/ops.h"
#include "guest/runners.h"
#include "obs/exporters.h"
#include "obs/trace.h"
#include "test_helpers.h"

namespace nv {
namespace {

using core::NVariantSystem;
using core::PipelineMode;
using testing::LambdaGuest;

std::unique_ptr<NVariantSystem> pipeline_system(PipelineMode mode,
                                                std::shared_ptr<obs::TraceRecorder> trace = {}) {
  core::NVariantSystem::Builder builder;
  builder.n_variants(2).pipeline(mode);
  if (trace) builder.trace(std::move(trace));
  return builder.build();
}

TEST(SyscallPipeline, WriteBatchCoalescesIntoOneBarrierRound) {
  const auto system_owner = pipeline_system(PipelineMode::kPipelined);
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) {
    auto fd = ctx.open("/out.txt", os::OpenFlags::kWrite | os::OpenFlags::kCreate);
    ASSERT_TRUE(fd.has_value());
    const auto wrote = ctx.write_batch(*fd, {"alpha", "beta", "gamma"});
    ASSERT_TRUE(wrote.has_value());
    EXPECT_EQ(*wrote, 14u);
    (void)ctx.close(*fd);
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  ASSERT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);
  // open + (3-call write batch) + close + exit = 4 barrier rounds, one of
  // which coalesced more than one call.
  EXPECT_EQ(report.syscall_rounds, 4u);
  EXPECT_EQ(report.syscall_batches, 1u);
  // Output-once still holds: the batch executed each position exactly once.
  auto content = system.fs().read_file("/out.txt", os::Credentials::root());
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(*content, "alphabetagamma");
}

TEST(SyscallPipeline, BatchSplitsOnClassBoundary) {
  const auto system_owner = pipeline_system(PipelineMode::kPipelined);
  auto& system = *system_owner;
  ASSERT_TRUE(system.fs().write_file("/in.txt", "abcdef", os::Credentials::root()));
  LambdaGuest guest([](guest::GuestContext& ctx) {
    auto in = ctx.open("/in.txt", os::OpenFlags::kRead);
    auto out = ctx.open("/out.txt", os::OpenFlags::kWrite | os::OpenFlags::kCreate);
    ASSERT_TRUE(in.has_value());
    ASSERT_TRUE(out.has_value());
    // One guest-visible batch mixing input-class reads with output-class
    // writes: the pipeline must split it at the class boundary (two barrier
    // rounds), never compare a read against a write.
    vkernel::SyscallBatch batch;
    for (int i = 0; i < 2; ++i) {
      vkernel::SyscallArgs read;
      read.no = vkernel::Sys::kRead;
      read.ints = {static_cast<std::uint64_t>(*in), 3};
      batch.calls.push_back(std::move(read));
    }
    for (const char* payload : {"x", "y"}) {
      vkernel::SyscallArgs write;
      write.no = vkernel::Sys::kWrite;
      write.ints = {static_cast<std::uint64_t>(*out)};
      write.strs = {payload};
      batch.calls.push_back(std::move(write));
    }
    const auto results = ctx.raw_syscall_batch(batch);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].data, "abc");
    EXPECT_EQ(results[1].data, "def");
    (void)ctx.close(*in);
    (void)ctx.close(*out);
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  ASSERT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);
  // 2 opens + 2 sub-batches + 2 closes + exit = 7 rounds; both sub-batches
  // carried more than one call.
  EXPECT_EQ(report.syscall_rounds, 7u);
  EXPECT_EQ(report.syscall_batches, 2u);
  auto content = system.fs().read_file("/out.txt", os::Credentials::root());
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(*content, "xy");
}

TEST(SyscallPipeline, DivergenceMidBatchAbortsTheWholeBatch) {
  const auto system_owner = pipeline_system(PipelineMode::kPipelined);
  auto& system = *system_owner;
  std::atomic<int> batch_aborts{0};
  LambdaGuest guest([&](guest::GuestContext& ctx) {
    auto fd = ctx.open("/out.txt", os::OpenFlags::kWrite | os::OpenFlags::kCreate);
    ASSERT_TRUE(fd.has_value());
    vkernel::SyscallBatch batch;
    for (const std::string& payload :
         {std::string("same"),
          ctx.variant() == 0 ? std::string("ours") : std::string("theirs")}) {
      vkernel::SyscallArgs write;
      write.no = vkernel::Sys::kWrite;
      write.ints = {static_cast<std::uint64_t>(*fd)};
      write.strs = {payload};
      batch.calls.push_back(std::move(write));
    }
    try {
      (void)ctx.raw_syscall_batch(batch);
    } catch (const core::DivergenceAbort&) {
      // The batch diverged at position 1; position 0's result must NOT leak
      // back to the guest — the whole batch throws.
      batch_aborts.fetch_add(1, std::memory_order_relaxed);
      throw;
    }
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_FALSE(report.completed);
  EXPECT_TRUE(report.attack_detected);
  ASSERT_TRUE(report.alarm.has_value());
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kArgumentMismatch);
  EXPECT_EQ(batch_aborts.load(std::memory_order_relaxed), 2);
}

TEST(SyscallPipeline, PipelinedAndLockstepProduceIdenticalGuestResults) {
  // The pipeline is a performance refactor, not a semantics change: the same
  // guest must observe the same values and leave the same filesystem state
  // whether every call pays a barrier or not.
  const auto run_mode = [](PipelineMode mode) {
    auto system_owner = pipeline_system(mode);
    auto& system = *system_owner;
    EXPECT_TRUE(system.fs().write_file("/in.txt", "payload", os::Credentials::root()));
    LambdaGuest guest([](guest::GuestContext& ctx) {
      const auto pid = ctx.getpid();
      (void)ctx.gettime();
      auto content = ctx.read_file("/in.txt");
      ASSERT_TRUE(content.has_value());
      auto out = ctx.open("/out.txt", os::OpenFlags::kWrite | os::OpenFlags::kCreate);
      ASSERT_TRUE(out.has_value());
      ASSERT_TRUE(ctx.write_batch(*out, {*content, "-done"}).has_value());
      (void)ctx.close(*out);
      ctx.exit(static_cast<int>(pid % 100));
    });
    const auto report = guest::run_nvariant(system, guest);
    auto content = system.fs().read_file("/out.txt", os::Credentials::root());
    EXPECT_TRUE(content.has_value());
    return std::make_tuple(report.completed, report.exit_codes,
                           content.has_value() ? *content : std::string());
  };
  const auto pipelined = run_mode(PipelineMode::kPipelined);
  const auto lockstep = run_mode(PipelineMode::kLockstep);
  EXPECT_TRUE(std::get<0>(pipelined));
  EXPECT_EQ(pipelined, lockstep);
  EXPECT_EQ(std::get<2>(pipelined), "payload-done");
}

TEST(SyscallPipeline, GoldenTraceWithBatchesExportsDeterministicCausalChain) {
  // Determinism contract for batched runs: same guest, same ManualClock =>
  // byte-identical Chrome traces, with the batch rounds visible as
  // syscall_batch events (a = first call's syscall, b = batch size).
  const auto run_once = [] {
    fleet::ManualClock clock;
    obs::TraceConfig config;
    config.syscall_round_sample = 1;  // keep every round: the full chain
    auto recorder = std::make_shared<obs::TraceRecorder>(config, clock.fn());
    auto system_owner = pipeline_system(PipelineMode::kPipelined, recorder);
    auto& system = *system_owner;
    LambdaGuest guest([](guest::GuestContext& ctx) {
      auto fd = ctx.open("/out.txt", os::OpenFlags::kWrite | os::OpenFlags::kCreate);
      ASSERT_TRUE(fd.has_value());
      ASSERT_TRUE(ctx.write_batch(*fd, {"a", "b", "c", "d"}).has_value());
      (void)ctx.close(*fd);
      for (int i = 0; i < 3; ++i) (void)ctx.getpid();
      ctx.exit(0);
    });
    const auto report = guest::run_nvariant(system, guest);
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.syscall_batches, 1u);
    EXPECT_EQ(report.async_completions, 3u);
    return obs::to_chrome_trace(*recorder);
  };
  const std::string first = run_once();
  EXPECT_EQ(first, run_once());
  EXPECT_NE(first.find("\"syscall_batch\""), std::string::npos);
  EXPECT_NE(first.find("\"syscall_round\""), std::string::npos);
}

}  // namespace
}  // namespace nv
