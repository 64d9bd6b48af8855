// GuestContext API coverage on the plain kernel (files, creds, network,
// libc-style helpers, UidOps modes).
#include <gtest/gtest.h>

#include <thread>

#include "guest/runners.h"
#include "guest/uid_ops.h"
#include "test_helpers.h"

namespace nv::guest {
namespace {

struct GuestFixture : ::testing::Test {
  vfs::FileSystem fs;
  vkernel::SocketHub hub;
  vkernel::KernelContext ctx{fs, hub};

  void SetUp() override {
    const auto root = os::Credentials::root();
    ASSERT_TRUE(fs.mkdir_p("/etc", root));
    ASSERT_TRUE(fs.mkdir_p("/data", root));
    ASSERT_TRUE(fs.write_file("/etc/passwd",
                              "root:x:0:0:root:/root:/bin/sh\n"
                              "www:x:33:33:w:/var/www:/bin/false\n",
                              root));
    ASSERT_TRUE(fs.write_file("/etc/group", "root:x:0:\nwww:x:33:alice\n", root));
    ASSERT_TRUE(fs.write_file("/data/hello.txt", "hello guest", root));
  }

  PlainRunResult run(testing::LambdaGuest::Fn fn) {
    testing::LambdaGuest guest(std::move(fn));
    return run_plain(ctx, guest);
  }
};

TEST_F(GuestFixture, FileRoundTrip) {
  const auto result = run([](GuestContext& g) {
    auto fd = g.open("/data/out.txt", os::OpenFlags::kWrite | os::OpenFlags::kCreate);
    ASSERT_TRUE(fd.has_value());
    ASSERT_TRUE(g.write(*fd, "written by guest").has_value());
    EXPECT_EQ(g.close(*fd), os::Errno::kOk);
    auto content = g.read_file("/data/out.txt");
    ASSERT_TRUE(content.has_value());
    EXPECT_EQ(*content, "written by guest");
    g.exit(0);
  });
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.exit_code, 0);
}

TEST_F(GuestFixture, ReadFileConcatenatesChunks) {
  std::string big(10000, 'x');
  ASSERT_TRUE(fs.write_file("/data/big", big, os::Credentials::root()));
  const auto result = run([&](GuestContext& g) {
    auto content = g.read_file("/data/big");
    ASSERT_TRUE(content.has_value());
    EXPECT_EQ(content->size(), 10000u);
    g.exit(0);
  });
  EXPECT_TRUE(result.completed);
}

TEST_F(GuestFixture, StatSeekUnlinkMkdir) {
  const auto result = run([](GuestContext& g) {
    EXPECT_EQ(g.mkdir("/data/sub"), os::Errno::kOk);
    auto st = g.stat("/data/hello.txt");
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->size, 11u);
    auto fd = g.open("/data/hello.txt", os::OpenFlags::kRead);
    ASSERT_TRUE(fd.has_value());
    ASSERT_TRUE(g.seek(*fd, 6).has_value());
    EXPECT_EQ(g.read(*fd, 100).value(), "guest");
    (void)g.close(*fd);
    EXPECT_EQ(g.unlink("/data/hello.txt"), os::Errno::kOk);
    EXPECT_FALSE(g.stat("/data/hello.txt").has_value());
    g.exit(0);
  });
  EXPECT_TRUE(result.completed);
}

TEST_F(GuestFixture, CredentialHelpers) {
  const auto result = run([](GuestContext& g) {
    EXPECT_EQ(g.getuid(), 0u);
    EXPECT_EQ(g.setgroups({33}), os::Errno::kOk);
    EXPECT_EQ(g.setegid(33), os::Errno::kOk);
    EXPECT_EQ(g.seteuid(33), os::Errno::kOk);
    EXPECT_EQ(g.geteuid(), 33u);
    EXPECT_EQ(g.getegid(), 33u);
    EXPECT_EQ(g.getuid(), 0u);  // real uid unchanged
    g.exit(0);
  });
  EXPECT_TRUE(result.completed);
}

TEST_F(GuestFixture, GetpwnamAndGetgrnam) {
  const auto result = run([](GuestContext& g) {
    const auto www = g.getpwnam("www");
    ASSERT_TRUE(www.has_value());
    EXPECT_EQ(www->uid, 33u);
    EXPECT_EQ(www->home, "/var/www");
    EXPECT_FALSE(g.getpwnam("nobody-here").has_value());
    const auto group = g.getgrnam("www");
    ASSERT_TRUE(group.has_value());
    EXPECT_EQ(group->gid, 33u);
    EXPECT_EQ(group->members, (std::vector<std::string>{"alice"}));
    g.exit(0);
  });
  EXPECT_TRUE(result.completed);
}

TEST_F(GuestFixture, NetworkEcho) {
  testing::LambdaGuest guest([](GuestContext& g) {
    auto sock = g.socket();
    ASSERT_TRUE(sock.has_value());
    ASSERT_EQ(g.bind(*sock, 7777), os::Errno::kOk);
    ASSERT_EQ(g.listen(*sock), os::Errno::kOk);
    auto conn = g.accept(*sock);
    ASSERT_TRUE(conn.has_value());
    auto data = g.read(*conn, 100);
    ASSERT_TRUE(data.has_value());
    ASSERT_TRUE(g.write(*conn, "echo:" + *data).has_value());
    (void)g.close(*conn);
    g.exit(0);
  });
  PlainRunResult run_result;
  std::thread server([&] { run_result = run_plain(ctx, guest); });
  ASSERT_TRUE(testing::wait_for_bind(hub, 7777));
  auto conn = hub.connect(7777);
  ASSERT_TRUE(conn.has_value());
  ASSERT_TRUE(conn->send("ping").has_value());
  EXPECT_EQ(conn->recv(100).value(), "echo:ping");
  server.join();
  EXPECT_TRUE(run_result.completed);
}

TEST_F(GuestFixture, ExitCodePropagates) {
  const auto result = run([](GuestContext& g) { g.exit(17); });
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.exit_code, 17);
}

TEST_F(GuestFixture, MemoryFaultReported) {
  const auto result = run([](GuestContext& g) {
    (void)g.memory().load_u8(0xDEADBEEF00ULL);
    g.exit(0);
  });
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.faulted);
  EXPECT_NE(result.fault_detail.find("unmapped"), std::string::npos);
}

TEST_F(GuestFixture, UidConstIsIdentityOnPlainBuild) {
  const auto result = run([](GuestContext& g) {
    EXPECT_EQ(g.uid_const(0), 0u);
    EXPECT_EQ(g.uid_const(1000), 1000u);
    g.exit(0);
  });
  EXPECT_TRUE(result.completed);
}

TEST_F(GuestFixture, UidOpsPlainAndCheckedAgreeOnPlainKernel) {
  const auto result = run([](GuestContext& g) {
    for (const auto mode :
         {UidOpsMode::kPlain, UidOpsMode::kSyscallChecked, UidOpsMode::kUserSpaceReversed}) {
      UidOps ops(g, mode);
      EXPECT_TRUE(ops.eq(5, 5)) << to_string(mode);
      EXPECT_TRUE(ops.neq(5, 6));
      EXPECT_TRUE(ops.lt(5, 6));
      EXPECT_TRUE(ops.leq(6, 6));
      EXPECT_TRUE(ops.gt(7, 6));
      EXPECT_TRUE(ops.geq(7, 7));
      EXPECT_TRUE(ops.is_root(0));
      EXPECT_FALSE(ops.is_root(1));
      EXPECT_EQ(ops.check_value(42), 42u);
      EXPECT_TRUE(ops.check_cond(true));
    }
    g.exit(0);
  });
  EXPECT_TRUE(result.completed);
}

TEST_F(GuestFixture, PermissionDeniedAfterDrop) {
  ASSERT_TRUE(fs.write_file("/data/secret", "root only", os::Credentials::root(), 0600));
  const auto result = run([](GuestContext& g) {
    ASSERT_TRUE(g.read_file("/data/secret").has_value());  // still root
    ASSERT_EQ(g.seteuid(33), os::Errno::kOk);
    auto denied = g.read_file("/data/secret");
    ASSERT_FALSE(denied.has_value());
    EXPECT_EQ(denied.error(), os::Errno::kEACCES);
    g.exit(0);
  });
  EXPECT_TRUE(result.completed);
}

TEST_F(GuestFixture, AReturnEndsTheRunAsExitZeroDoes) {
  // run_plain issues a returning guest's exit(0), as the MVEE does, so both
  // make the same calls.
  std::uint64_t before = ctx.syscalls_executed();
  const PlainRunResult returned = run([](GuestContext& g) { (void)g.getpid(); });
  const std::uint64_t returned_calls = ctx.syscalls_executed() - before;
  before = ctx.syscalls_executed();
  const PlainRunResult exited = run([](GuestContext& g) {
    (void)g.getpid();
    g.exit(0);
  });
  EXPECT_EQ(ctx.syscalls_executed() - before, returned_calls);
  EXPECT_EQ(returned_calls, 2u);  // getpid, exit
  EXPECT_EQ(returned, exited);
  EXPECT_TRUE(returned.completed);
  EXPECT_EQ(returned.exit_code, 0);
}

/// Six groups fit a call; with a seventh, setgroups fails with EINVAL and no
/// call is made. The guest sees its groups through open() once it has
/// dropped root: /data/g6 is readable by group 6 only, /data/g7 by group 7.
void seven_groups(GuestContext& g) {
  std::vector<os::gid_t> groups;
  for (os::gid_t gid = 1; gid <= 6; ++gid) groups.push_back(g.uid_const(gid));
  EXPECT_EQ(g.setgroups(groups), os::Errno::kOk);
  groups.push_back(g.uid_const(7));
  EXPECT_EQ(g.setgroups(groups), os::Errno::kEINVAL);
  ASSERT_EQ(g.seteuid(g.uid_const(1000)), os::Errno::kOk);
  EXPECT_TRUE(g.open("/data/g6", os::OpenFlags::kRead).has_value());
  const auto denied = g.open("/data/g7", os::OpenFlags::kRead);
  ASSERT_FALSE(denied.has_value());
  EXPECT_EQ(denied.error(), os::Errno::kEACCES);
}

void install_group_files(vfs::FileSystem& fs) {
  const auto root = os::Credentials::root();
  ASSERT_TRUE(fs.mkdir_p("/data", root));
  for (const os::gid_t gid : {6u, 7u}) {
    const std::string path = "/data/g" + std::to_string(gid);
    ASSERT_TRUE(fs.write_file(path, "group only", root, 0040));
    ASSERT_TRUE(fs.chown(path, os::kRootUid, gid, root));
  }
}

TEST_F(GuestFixture, SetgroupsPastSixGroupsIsEinval) {
  install_group_files(fs);
  const auto result = run(seven_groups);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.exit_code, 0);
}

TEST(GuestUnderMvee, SetgroupsPastSixGroupsIsEinvalWithoutAlarm) {
  auto system = testing::build_system(2, {"uid-xor"});
  install_group_files(system->fs());
  testing::LambdaGuest guest(seven_groups);
  const core::RunReport report = run_nvariant(*system, guest);
  EXPECT_FALSE(report.attack_detected);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.exit_codes, (std::vector<int>{0, 0}));
}

}  // namespace
}  // namespace nv::guest
