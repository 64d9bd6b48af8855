// MVEE behaviour: lockstep, input replication, output-once, divergence
// detection, unshared files, detection syscalls, and fault handling.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/nvariant_system.h"
#include "guest/runners.h"
#include "test_helpers.h"

namespace nv {
namespace {

using core::NVariantSystem;
using testing::LambdaGuest;

std::unique_ptr<NVariantSystem> fast_system(
    std::initializer_list<std::string_view> variation_names = {},
    std::initializer_list<std::string> unshared = {}, unsigned n_variants = 2) {
  return testing::build_system(n_variants, variation_names,
                               unshared);
}

TEST(NVariantSystem, IdenticalGuestsCompleteWithoutAlarm) {
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) {
    (void)ctx.getpid();
    (void)ctx.gettime();
    ctx.exit(7);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_FALSE(report.attack_detected);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.exit_codes, (std::vector<int>{7, 7}));
}

TEST(NVariantSystem, SyscallRoundsAreCounted) {
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) {
    for (int i = 0; i < 5; ++i) (void)ctx.getpid();
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.syscall_rounds, 6u);  // 5 getpid + exit, one barrier each
}

TEST(NVariantSystem, SharedFileReadIsReplicatedIdentically) {
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  ASSERT_TRUE(system.fs().write_file("/data.txt", "hello world", os::Credentials::root()));
  LambdaGuest guest([](guest::GuestContext& ctx) {
    auto content = ctx.read_file("/data.txt");
    ASSERT_TRUE(content.has_value());
    EXPECT_EQ(*content, "hello world");
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);
}

TEST(NVariantSystem, SharedWritePerformedOnce) {
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) {
    auto fd = ctx.open("/out.txt", os::OpenFlags::kWrite | os::OpenFlags::kCreate);
    ASSERT_TRUE(fd.has_value());
    ASSERT_TRUE(ctx.write(*fd, "once").has_value());
    (void)ctx.close(*fd);
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  ASSERT_TRUE(report.completed);
  // Two variants wrote, but the file contains the payload exactly once.
  auto content = system.fs().read_file("/out.txt", os::Credentials::root());
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(*content, "once");
}

TEST(NVariantSystem, NoCallExecutesBeforeEveryVariantHasIssuedIt) {
  // Variant 0 calls getpid while variant 1 calls gettime. Whichever arrives
  // first waits for the other, and the leader compares the two calls before
  // either executes: the mismatch alarms and the kernel runs nothing.
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) {
    if (ctx.variant() == 0) {
      (void)ctx.getpid();
    } else {
      (void)ctx.gettime();
    }
    ctx.exit(0);
  });
  const std::uint64_t executed = system.kernel().syscalls_executed();
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.attack_detected);
  ASSERT_TRUE(report.alarm.has_value());
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kSyscallMismatch);
  EXPECT_EQ(system.kernel().syscalls_executed(), executed);
}

TEST(NVariantSystem, DivergentWritePayloadsRaiseAlarm) {
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) {
    auto fd = ctx.open("/log", os::OpenFlags::kWrite | os::OpenFlags::kCreate);
    ASSERT_TRUE(fd.has_value());
    (void)ctx.write(*fd, ctx.variant() == 0 ? "AAA" : "BBB");
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.attack_detected);
  ASSERT_TRUE(report.alarm.has_value());
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kArgumentMismatch);
}

TEST(NVariantSystem, MemoryFaultInOneVariantRaisesAlarm) {
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) {
    (void)ctx.getpid();  // one clean rendezvous first
    if (ctx.variant() == 1) {
      (void)ctx.memory().load_u8(0xDEAD0000);  // unmapped -> fault
    }
    (void)ctx.getpid();
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.attack_detected);
  ASSERT_TRUE(report.alarm.has_value());
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kMemoryFault);
  EXPECT_EQ(report.alarm->variant, 1u);
}

TEST(NVariantSystem, ExitCodeDivergenceDetected) {
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) { ctx.exit(ctx.variant() == 0 ? 0 : 1); });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.attack_detected);
  ASSERT_TRUE(report.alarm.has_value());
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kArgumentMismatch);
}

TEST(NVariantSystem, VariantThatCallsOnAfterItsPeersFinishStalls) {
  // Both variants exit, but variant 0 catches its own GuestExit and calls
  // seteuid. Variant 1's body has returned, so no peer will ever meet that
  // call, and the scheduler says so in the pass that finds it.
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) {
    try {
      ctx.exit(0);
    } catch (const guest::GuestExit&) {
      if (ctx.variant() == 1) throw;
    }
    (void)ctx.seteuid(ctx.uid_const(1000));
  });
  const auto start = std::chrono::steady_clock::now();
  const auto report = guest::run_nvariant(system, guest);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(report.attack_detected);
  ASSERT_TRUE(report.alarm.has_value());
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kRendezvousStall);
  // At once: no deadline is involved, so even a sanitizer build is far
  // inside this bound.
  EXPECT_LT(elapsed, std::chrono::milliseconds(500));
}

TEST(NVariantSystem, SlowVariantNeverAlarms) {
  // A variant that is merely slow — here 50 ms outside any syscall, as a
  // loaded host might make it — is late, not divergent.
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) {
    if (ctx.variant() == 1) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    (void)ctx.getpid();
    (void)ctx.seteuid(ctx.uid_const(1000));
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_FALSE(report.attack_detected);
  EXPECT_FALSE(report.alarm.has_value());
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.exit_codes, (std::vector<int>{0, 0}));
}

TEST(NVariantSystem, RunStartsNoThreadAndLaunchStartsOne) {
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  std::vector<std::thread::id> ids(2);
  LambdaGuest guest([&ids](guest::GuestContext& ctx) {
    ids[ctx.variant()] = std::this_thread::get_id();
    (void)ctx.getpid();
    ctx.exit(0);
  });
  EXPECT_TRUE(guest::run_nvariant(system, guest).completed);
  EXPECT_EQ(ids[0], std::this_thread::get_id());
  EXPECT_EQ(ids[1], std::this_thread::get_id());

  guest::launch_nvariant(system, guest);
  EXPECT_TRUE(system.running());
  EXPECT_TRUE(system.stop().completed);
  EXPECT_FALSE(system.running());
  EXPECT_EQ(ids[0], ids[1]);  // one session thread for both variants
  EXPECT_NE(ids[0], std::this_thread::get_id());
}

TEST(NVariantSystem, ServeStartsNoThread) {
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  // Two variants, then the client.
  std::vector<std::thread::id> ids(3);
  std::vector<bool> running(3, true);
  LambdaGuest guest([&](guest::GuestContext& ctx) {
    ids[ctx.variant()] = std::this_thread::get_id();
    running[ctx.variant()] = system.running();
    (void)ctx.getpid();
    ctx.exit(0);
  });
  const auto report = guest::serve_nvariant(system, guest, [&] {
    ids[2] = std::this_thread::get_id();
    running[2] = system.running();
  });
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(system.running());
  EXPECT_EQ(ids, std::vector<std::thread::id>(3, std::this_thread::get_id()));
  EXPECT_EQ(running, std::vector<bool>(3, false));
}

TEST(NVariantSystem, UnsharedFilesOpenVariantCopies) {
  const auto system_owner = fast_system({}, {"/etc/secret"});
  auto& system = *system_owner;
  const auto root = os::Credentials::root();
  ASSERT_TRUE(system.fs().mkdir_p("/etc", root));
  ASSERT_TRUE(system.fs().write_file("/etc/secret", "canonical", root));
  ASSERT_TRUE(system.fs().write_file("/etc/secret-0", "copy zero", root));
  ASSERT_TRUE(system.fs().write_file("/etc/secret-1", "copy one", root));
  LambdaGuest guest([](guest::GuestContext& ctx) {
    auto content = ctx.read_file("/etc/secret");
    ASSERT_TRUE(content.has_value());
    // Each variant sees its own copy; asserting inside the guest checks both.
    if (ctx.variant() == 0) {
      EXPECT_EQ(*content, "copy zero");
    } else {
      EXPECT_EQ(*content, "copy one");
    }
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);
}

TEST(NVariantSystem, UnsharedWritesLandInVariantCopies) {
  const auto system_owner = fast_system({}, {"/etc/state"});
  auto& system = *system_owner;
  const auto root = os::Credentials::root();
  ASSERT_TRUE(system.fs().mkdir_p("/etc", root));
  ASSERT_TRUE(system.fs().write_file("/etc/state-0", "", root));
  ASSERT_TRUE(system.fs().write_file("/etc/state-1", "", root));
  LambdaGuest guest([](guest::GuestContext& ctx) {
    auto fd = ctx.open("/etc/state", os::OpenFlags::kWrite);
    ASSERT_TRUE(fd.has_value());
    // Same payload in both variants (different payloads would alarm).
    ASSERT_TRUE(ctx.write(*fd, "written").has_value());
    (void)ctx.close(*fd);
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  ASSERT_TRUE(report.completed);
  EXPECT_EQ(*system.fs().read_file("/etc/state-0", root), "written");
  EXPECT_EQ(*system.fs().read_file("/etc/state-1", root), "written");
}

/// Seeks to 1 GiB and writes one byte: the file would need a 1 GiB buffer.
void write_one_byte_at_one_gib(guest::GuestContext& ctx) {
  auto fd = ctx.open("/big", os::OpenFlags::kWrite | os::OpenFlags::kCreate);
  ASSERT_TRUE(fd.has_value());
  ASSERT_TRUE(ctx.seek(*fd, std::uint64_t{1} << 30).has_value());
  const auto written = ctx.write(*fd, "x");
  ASSERT_FALSE(written.has_value());
  EXPECT_EQ(written.error(), os::Errno::kEFBIG);
  ctx.exit(0);
}

TEST(NVariantSystem, WritePastTheFileSizeCapFailsWithEfbig) {
  const auto root = os::Credentials::root();
  {
    vfs::FileSystem fs;
    vkernel::SocketHub hub;
    vkernel::KernelContext ctx{fs, hub};
    LambdaGuest guest(write_one_byte_at_one_gib);
    EXPECT_TRUE(guest::run_plain(ctx, guest).completed);
    EXPECT_EQ(fs.stat("/big").value().size, 0u);
  }
  const auto system = fast_system({"uid-xor"});
  LambdaGuest guest(write_one_byte_at_one_gib);
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);
  EXPECT_EQ(system->fs().stat("/big").value().size, 0u);
  EXPECT_TRUE(system->fs().read_file("/big", root).value().empty());
}

/// Counts prepare_filesystem calls; derives nothing.
class CountingVariation final : public core::Variation {
 public:
  explicit CountingVariation(unsigned& calls) : calls_(calls) {}
  [[nodiscard]] std::string_view name() const override { return "counting"; }
  void prepare_filesystem(vfs::FileSystem&, unsigned) const override { ++calls_; }
  [[nodiscard]] std::vector<std::string> unshared_paths() const override {
    return {"/etc/state"};
  }

 private:
  unsigned& calls_;
};

TEST(NVariantSystem, PrepareFilesystemRunsFirstThenOnlyAfterAnUnsharedFileChanged) {
  unsigned calls = 0;
  auto system = NVariantSystem::Builder()
                    .n_variants(2)
                    .variation(std::make_shared<CountingVariation>(calls))
                    .build();
  auto& fs = system->fs();
  const auto root = os::Credentials::root();
  ASSERT_TRUE(fs.mkdir_p("/etc", root));
  ASSERT_TRUE(fs.write_file("/etc/unrelated", "u", root));
  LambdaGuest guest([](guest::GuestContext& ctx) { ctx.exit(0); });
  const auto run_and_count = [&] {
    const unsigned before = calls;
    EXPECT_TRUE(guest::run_nvariant(*system, guest).completed);
    return calls - before;
  };

  EXPECT_EQ(run_and_count(), 1u) << "the first run always derives";
  EXPECT_EQ(run_and_count(), 0u) << "an absent file, still absent";
  ASSERT_TRUE(fs.write_file("/etc/unrelated", "v", root));
  EXPECT_EQ(run_and_count(), 0u) << "a file that is not unshared";
  ASSERT_TRUE(fs.write_file("/etc/state-1", "copy", root));
  EXPECT_EQ(run_and_count(), 0u) << "a copy of an absent file is not watched";
  ASSERT_TRUE(fs.write_file("/etc/state", "s", root));
  EXPECT_EQ(run_and_count(), 1u) << "the file appeared";
  EXPECT_EQ(run_and_count(), 0u);
  ASSERT_TRUE(fs.write_file("/etc/state", "s", root));
  EXPECT_EQ(run_and_count(), 0u) << "an identical rewrite";
  ASSERT_TRUE(fs.chmod("/etc/state", 0600, root));
  EXPECT_EQ(run_and_count(), 1u) << "a mode change";
  ASSERT_TRUE(fs.write_file("/etc/state-0", "copy", root));
  EXPECT_EQ(run_and_count(), 1u) << "a copy was created";
  ASSERT_TRUE(fs.write_file("/etc/state-0", "changed", root));
  EXPECT_EQ(run_and_count(), 1u) << "a copy changed";
  ASSERT_TRUE(fs.unlink("/etc/state-1", root));
  EXPECT_EQ(run_and_count(), 1u) << "a copy was removed";
  ASSERT_TRUE(fs.unlink("/etc/state", root));
  EXPECT_EQ(run_and_count(), 1u) << "the file was removed";
  EXPECT_EQ(run_and_count(), 0u);
}

TEST(NVariantSystem, CondChkDivergenceRaisesConditionAlarm) {
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) {
    (void)ctx.cond_chk(ctx.variant() == 0);
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.attack_detected);
  ASSERT_TRUE(report.alarm.has_value());
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kConditionMismatch);
}

TEST(NVariantSystem, CondChkAgreementPasses) {
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) {
    EXPECT_TRUE(ctx.cond_chk(true));
    EXPECT_FALSE(ctx.cond_chk(false));
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_FALSE(report.attack_detected);
}

TEST(NVariantSystem, ThreeVariantsRunInLockstep) {
  const auto system_owner = fast_system({}, {}, 3);
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) {
    for (int i = 0; i < 3; ++i) (void)ctx.gettime();
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.exit_codes.size(), 3u);
}

TEST(NVariantSystem, CredentialChangesStayEquivalentAcrossVariants) {
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) {
    EXPECT_EQ(ctx.seteuid(1000), os::Errno::kOk);
    EXPECT_EQ(ctx.geteuid(), 1000u);
    EXPECT_EQ(ctx.seteuid(0), os::Errno::kOk);  // saved uid still root
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);
}

TEST(NVariantSystem, AddressPartitioningGivesDisjointBases) {
  const auto system_owner = fast_system({"address-partitioning"});
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) {
    const std::uint64_t addr = ctx.alloc(64);
    if (ctx.variant() == 0) {
      EXPECT_LT(addr, 0x80000000ULL);
    } else {
      EXPECT_GE(addr, 0x80000000ULL);
    }
    ctx.memory().store_u32(addr, 42);
    EXPECT_EQ(ctx.memory().load_u32(addr), 42u);
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);
}

TEST(NVariantSystem, InjectedAbsoluteAddressFaultsInOneVariant) {
  const auto system_owner = fast_system({"address-partitioning"});
  auto& system = *system_owner;
  // The "attacker" injects a concrete pointer that is valid for variant 0
  // only; dereferencing it faults in variant 1 (Figure 1's argument).
  LambdaGuest guest([](guest::GuestContext& ctx) {
    const std::uint64_t injected = 0x10000100;  // inside variant 0's partition
    (void)ctx.memory().load_u8(injected);
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.attack_detected);
  ASSERT_TRUE(report.alarm.has_value());
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kMemoryFault);
  EXPECT_EQ(report.alarm->variant, 1u);
}

TEST(NVariantSystem, ServerThatExitsBeforeBindingWakesTheBindWaiter) {
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) { ctx.exit(3); });
  guest::launch_nvariant(system, guest);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(system.hub().wait_bound(9091, start + std::chrono::seconds(30)));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  const auto report = system.stop();
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.exit_codes, (std::vector<int>{3, 3}));
}

TEST(NVariantSystem, ServedServerThatExitsBeforeBindingFailsTheBindWait) {
  // No deadline: the client's bind wait is released in the first scheduler
  // pass that finds nothing else to run.
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) { ctx.exit(3); });
  bool bound = true;
  const auto report =
      guest::serve_nvariant(system, guest, [&] { bound = system.hub().wait_bound(9091); });
  EXPECT_FALSE(bound);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.exit_codes, (std::vector<int>{3, 3}));
}

/// A server that binds `port`, accepts one connection and hands it to
/// `session`, then exits with what `session` returns.
LambdaGuest one_connection_server(std::uint16_t port,
                                  std::function<int(guest::GuestContext&, os::fd_t)> session) {
  return LambdaGuest([port, session = std::move(session)](guest::GuestContext& ctx) {
    auto sock = ctx.socket();
    ASSERT_TRUE(sock.has_value());
    ASSERT_EQ(ctx.bind(*sock, port), os::Errno::kOk);
    ASSERT_EQ(ctx.listen(*sock), os::Errno::kOk);
    auto conn = ctx.accept(*sock);
    ASSERT_TRUE(conn.has_value());
    ctx.exit(session(ctx, *conn));
  });
}

TEST(NVariantSystem, ServedProtocolDeadlockFailsBothWaitsWithoutAlarm) {
  // The client waits for a reply while the server waits for more input.
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  auto guest = one_connection_server(9092, [](guest::GuestContext& ctx, os::fd_t conn) {
    auto request = ctx.read(conn, 64);
    return !request && request.error() == os::Errno::kEINTR ? 4 : 5;
  });
  std::optional<os::Errno> client_error;
  const auto report = guest::serve_nvariant(system, guest, [&] {
    ASSERT_TRUE(system.hub().wait_bound(9092));
    auto conn = system.hub().connect(9092);
    ASSERT_TRUE(conn.has_value());
    auto reply = conn->recv(64);
    if (!reply) client_error = reply.error();
  });
  EXPECT_EQ(client_error, os::Errno::kEINTR);
  EXPECT_FALSE(system.monitor().triggered());
  EXPECT_FALSE(report.attack_detected);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.exit_codes, (std::vector<int>{4, 4}));
}

TEST(NVariantSystem, ServedVariantThatCallsOnAfterItsPeersFinishStallsWhileTheClientWaits) {
  // Both server variants exit, but variant 0 catches its own GuestExit and
  // calls seteuid, which no peer will ever meet, while the client waits in
  // recv for a reply that never comes. The client's wait is released first;
  // then the stall alarms.
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  auto guest = one_connection_server(9093, [](guest::GuestContext& ctx, os::fd_t) {
    if (ctx.variant() == 1) return 0;  // one_connection_server exits with it
    try {
      ctx.exit(0);
    } catch (const guest::GuestExit&) {
    }
    (void)ctx.seteuid(ctx.uid_const(1000));
    return 0;
  });
  std::optional<os::Errno> client_error;
  const auto report = guest::serve_nvariant(system, guest, [&] {
    ASSERT_TRUE(system.hub().wait_bound(9093));
    auto conn = system.hub().connect(9093);
    ASSERT_TRUE(conn.has_value());
    auto reply = conn->recv(64);
    if (!reply) client_error = reply.error();
  });
  EXPECT_EQ(client_error, os::Errno::kEINTR);
  EXPECT_TRUE(report.attack_detected);
  ASSERT_TRUE(report.alarm.has_value());
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kRendezvousStall);
}

TEST(NVariantSystem, ServeRethrowsAClientExceptionOnceEveryFiberHasFinished) {
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  unsigned finished = 0;
  LambdaGuest guest([&finished](guest::GuestContext& ctx) {
    auto sock = ctx.socket();
    ASSERT_TRUE(sock.has_value());
    ASSERT_EQ(ctx.bind(*sock, 9094), os::Errno::kOk);
    ASSERT_EQ(ctx.listen(*sock), os::Errno::kOk);
    while (true) {
      auto conn = ctx.accept(*sock);
      if (!conn) break;  // the hub shut down when the client was done
      (void)ctx.close(*conn);
    }
    ++finished;
    ctx.exit(0);
  });
  EXPECT_THROW((void)guest::serve_nvariant(system, guest,
                                           [&] {
                                             ASSERT_TRUE(system.hub().wait_bound(9094));
                                             throw std::runtime_error("client bug");
                                           }),
               std::runtime_error);
  EXPECT_EQ(finished, 2u);
  EXPECT_FALSE(system.monitor().triggered());
  EXPECT_FALSE(system.running());

  // The system serves the next run as if nothing had happened.
  bool connected = false;
  const auto report = guest::serve_nvariant(system, guest, [&] {
    ASSERT_TRUE(system.hub().wait_bound(9094));
    auto conn = system.hub().connect(9094);
    connected = conn.has_value();
    if (conn) conn->close();
  });
  EXPECT_TRUE(connected);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);
  EXPECT_EQ(finished, 4u);
}

TEST(NVariantSystem, ServerModeStopsCleanly) {
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) {
    auto sock = ctx.socket();
    ASSERT_TRUE(sock.has_value());
    ASSERT_EQ(ctx.bind(*sock, 9090), os::Errno::kOk);
    ASSERT_EQ(ctx.listen(*sock), os::Errno::kOk);
    while (true) {
      auto conn = ctx.accept(*sock);
      if (!conn) break;  // interrupted by stop()
      (void)ctx.close(*conn);
    }
    ctx.exit(0);
  });
  guest::launch_nvariant(system, guest);
  // Give the server a moment to reach accept, then shut down.
  ASSERT_TRUE(testing::wait_for_bind(system.hub(), 9090));
  auto conn = system.hub().connect(9090);
  if (conn) conn->close();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto report = system.stop();
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);
}

}  // namespace
}  // namespace nv
