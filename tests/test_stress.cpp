// Stress and soak tests: long randomized syscall sequences in lockstep,
// fd-table churn, server soak under many requests, and concurrent clients.
#include <gtest/gtest.h>

#include <thread>

#include "core/nvariant_system.h"
#include "guest/runners.h"
#include "httpd/client.h"
#include "httpd/mini_httpd.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace nv {
namespace {

using core::NVariantSystem;
using testing::LambdaGuest;

std::unique_ptr<NVariantSystem> stress_system(
    std::initializer_list<std::string_view> variation_names = {}, unsigned n_variants = 2) {
  return testing::build_system(n_variants, variation_names);
}

class VariantCount : public ::testing::TestWithParam<unsigned> {};

TEST_P(VariantCount, RandomizedSyscallSequenceStaysInLockstep) {
  const auto system_owner = stress_system({"uid-xor"}, GetParam());
  auto& system = *system_owner;
  const auto root = os::Credentials::root();
  ASSERT_TRUE(system.fs().mkdir_p("/etc", root));
  ASSERT_TRUE(system.fs().mkdir_p("/work", root));
  ASSERT_TRUE(system.fs().write_file("/etc/passwd", "root:x:0:0:r:/:/bin/sh\n", root));
  ASSERT_TRUE(system.fs().write_file("/etc/group", "root:x:0:\n", root));

  LambdaGuest guest([](guest::GuestContext& ctx) {
    // Deterministic per-guest RNG: every variant draws the SAME sequence, so
    // their syscall streams match — lockstep must hold across 300 rounds of
    // mixed syscalls.
    util::Rng rng{4242};
    for (int round = 0; round < 300; ++round) {
      switch (rng.below(6)) {
        case 0:
          (void)ctx.getpid();
          break;
        case 1:
          (void)ctx.gettime();
          break;
        case 2: {
          const auto name = "/work/f" + std::to_string(rng.below(8));
          auto fd = ctx.open(name, os::OpenFlags::kWrite | os::OpenFlags::kCreate);
          if (fd) {
            (void)ctx.write(*fd, "round");
            (void)ctx.close(*fd);
          }
          break;
        }
        case 3: {
          auto content = ctx.read_file("/etc/passwd");  // unshared per variant
          EXPECT_TRUE(content.has_value());
          break;
        }
        case 4: {
          const auto uid = static_cast<os::uid_t>(rng.below(5000));
          (void)ctx.seteuid(ctx.uid_const(uid));
          (void)ctx.seteuid(ctx.uid_const(0));
          break;
        }
        case 5:
          (void)ctx.cc(vkernel::CcOp::kLt, ctx.uid_const(static_cast<os::uid_t>(rng.below(100))),
                       ctx.uid_const(static_cast<os::uid_t>(rng.below(100))));
          break;
      }
    }
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.completed) << (report.alarm ? report.alarm->describe() : "");
  EXPECT_FALSE(report.attack_detected);
  EXPECT_GT(report.syscall_rounds, 300u);
}

INSTANTIATE_TEST_SUITE_P(Variants, VariantCount, ::testing::Values(2u, 3u, 4u));

TEST(Stress, FdTableChurnStaysSynchronized) {
  const auto system_owner = stress_system();
  auto& system = *system_owner;
  const auto root = os::Credentials::root();
  ASSERT_TRUE(system.fs().mkdir_p("/churn", root));
  LambdaGuest guest([](guest::GuestContext& ctx) {
    std::vector<os::fd_t> fds;
    for (int i = 0; i < 50; ++i) {
      auto fd = ctx.open("/churn/f" + std::to_string(i),
                         os::OpenFlags::kWrite | os::OpenFlags::kCreate);
      ASSERT_TRUE(fd.has_value());
      fds.push_back(*fd);
    }
    // Close even slots, reopen: freed slots must be reused identically in
    // every variant (slot synchronization).
    for (std::size_t i = 0; i < fds.size(); i += 2) (void)ctx.close(fds[i]);
    for (int i = 0; i < 25; ++i) {
      auto fd = ctx.open("/churn/g" + std::to_string(i),
                         os::OpenFlags::kWrite | os::OpenFlags::kCreate);
      ASSERT_TRUE(fd.has_value());
      EXPECT_EQ(*fd % 2, 0);  // reused an even slot
    }
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.completed) << (report.alarm ? report.alarm->describe() : "");
}

TEST(Stress, HttpdSoakFiftyRequests) {
  const auto system_owner = stress_system({"uid-xor"});
  auto& system = *system_owner;
  httpd::ServerConfig config;
  config.max_requests = 50;
  httpd::install_default_site(system.fs(), config);
  httpd::MiniHttpd server;
  guest::launch_nvariant(system, server);
  ASSERT_TRUE(testing::wait_for_bind(system.hub(), 8080));

  const char* paths[] = {"/", "/page1.html", "/page2.html", "/whoami", "/secret/key.txt",
                         "/missing.html"};
  int ok = 0;
  for (int i = 0; i < 50; ++i) {
    const auto response = httpd::http_get(system.hub(), 8080, paths[i % 6]);
    if (response.status == 200 || response.status == 404) ++ok;
  }
  const auto report = system.stop();
  EXPECT_EQ(ok, 50);
  EXPECT_TRUE(report.completed) << (report.alarm ? report.alarm->describe() : "");
  EXPECT_FALSE(report.attack_detected);
}

TEST(Stress, ConcurrentClientsAgainstSequentialServer) {
  const auto system_owner = stress_system({"uid-xor"});
  auto& system = *system_owner;
  httpd::ServerConfig config;
  config.max_requests = 30;
  httpd::install_default_site(system.fs(), config);
  httpd::MiniHttpd server;
  guest::launch_nvariant(system, server);
  ASSERT_TRUE(testing::wait_for_bind(system.hub(), 8080));

  std::atomic<int> successes{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        const auto response = httpd::http_get(system.hub(), 8080, "/");
        if (response.status == 200) successes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : clients) thread.join();
  const auto report = system.stop();
  EXPECT_EQ(successes.load(std::memory_order_relaxed), 30);
  EXPECT_FALSE(report.attack_detected);
}

TEST(Stress, ComputeHeavyGuestBetweenSyscalls) {
  // Long CPU bursts between rendezvous (fib via mini-C would be slow; plain
  // C++ loop here) must not raise an alarm as long as both variants keep
  // making progress.
  const auto system_owner = testing::build_system();
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) {
    volatile std::uint64_t sink = 0;
    for (int burst = 0; burst < 5; ++burst) {
      for (std::uint64_t i = 0; i < 2'000'000; ++i) sink = sink + i;
      (void)ctx.getpid();
    }
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.completed) << (report.alarm ? report.alarm->describe() : "");
}

TEST(Stress, RepeatedRunsOnOneSystem) {
  const auto system_owner = stress_system({"uid-xor"});
  auto& system = *system_owner;
  const auto root = os::Credentials::root();
  ASSERT_TRUE(system.fs().mkdir_p("/etc", root));
  ASSERT_TRUE(system.fs().write_file("/etc/passwd", "root:x:0:0:r:/:/bin/sh\n", root));
  ASSERT_TRUE(system.fs().write_file("/etc/group", "root:x:0:\n", root));
  for (int round = 0; round < 10; ++round) {
    LambdaGuest guest([round](guest::GuestContext& ctx) {
      EXPECT_EQ(ctx.seteuid(ctx.uid_const(static_cast<os::uid_t>(100 + round))), os::Errno::kOk);
      ctx.exit(round);
    });
    const auto report = guest::run_nvariant(system, guest);
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.exit_codes, (std::vector<int>{round, round}));
  }
}

}  // namespace
}  // namespace nv
