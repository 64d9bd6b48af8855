// Plain-kernel syscall semantics (the single-process baseline).
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "vkernel/kernel.h"
#include "vkernel/syscall_descriptors.h"

namespace nv::vkernel {
namespace {

struct KernelFixture : ::testing::Test {
  vfs::FileSystem fs;
  SocketHub hub;
  KernelContext ctx{fs, hub};
  PlainKernel kernel{ctx, "test-proc"};

  SyscallResult call(Sys no, SyscallInts ints = {}, std::string str = {}) {
    SyscallArgs args;
    args.no = no;
    args.ints = ints;
    args.str = std::move(str);
    return kernel.syscall(args);
  }
};

TEST_F(KernelFixture, OpenReadWriteClose) {
  ASSERT_TRUE(fs.write_file("/f.txt", "content", os::Credentials::root()));
  const auto open_result =
      call(Sys::kOpen, {static_cast<std::uint64_t>(os::OpenFlags::kRead), 0}, {"/f.txt"});
  ASSERT_TRUE(open_result.ok());
  const auto fd = open_result.value;
  const auto read_result = call(Sys::kRead, {fd, 100});
  EXPECT_EQ(read_result.data, "content");
  EXPECT_TRUE(call(Sys::kClose, {fd}).ok());
  EXPECT_EQ(call(Sys::kRead, {fd, 1}).err, os::Errno::kEBADF);
}

TEST_F(KernelFixture, FdNumbersAreLowestFree) {
  ASSERT_TRUE(fs.write_file("/a", "", os::Credentials::root()));
  const auto f0 = call(Sys::kOpen, {static_cast<std::uint64_t>(os::OpenFlags::kRead), 0}, {"/a"});
  const auto f1 = call(Sys::kOpen, {static_cast<std::uint64_t>(os::OpenFlags::kRead), 0}, {"/a"});
  EXPECT_EQ(f0.value, 0u);
  EXPECT_EQ(f1.value, 1u);
  ASSERT_TRUE(call(Sys::kClose, {f0.value}).ok());
  const auto f2 = call(Sys::kOpen, {static_cast<std::uint64_t>(os::OpenFlags::kRead), 0}, {"/a"});
  EXPECT_EQ(f2.value, 0u);  // slot reused
}

TEST_F(KernelFixture, StatReturnsMetadata) {
  ASSERT_TRUE(fs.write_file("/s.txt", "12345", os::Credentials::root(), 0640));
  const auto result = call(Sys::kStat, {}, {"/s.txt"});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.out_ints.size(), 6u);
  EXPECT_EQ(result.out_ints[1], 0u);      // not a dir
  EXPECT_EQ(result.out_ints[2], 0640u);   // mode
  EXPECT_EQ(result.out_ints[5], 5u);      // size
}

TEST_F(KernelFixture, CredentialSyscalls) {
  EXPECT_EQ(call(Sys::kGetuid).value, 0u);
  EXPECT_TRUE(call(Sys::kSeteuid, {1000}).ok());
  EXPECT_EQ(call(Sys::kGeteuid).value, 1000u);
  EXPECT_EQ(call(Sys::kGetuid).value, 0u);
  EXPECT_TRUE(call(Sys::kSeteuid, {0}).ok());
  EXPECT_TRUE(call(Sys::kSetuid, {500}).ok());
  EXPECT_EQ(call(Sys::kSetuid, {0}).err, os::Errno::kEPERM);
}

TEST_F(KernelFixture, PermissionDeniedOnProtectedFile) {
  ASSERT_TRUE(fs.write_file("/root.txt", "secret", os::Credentials::root(), 0600));
  ASSERT_TRUE(call(Sys::kSetuid, {1000}).ok());
  const auto result =
      call(Sys::kOpen, {static_cast<std::uint64_t>(os::OpenFlags::kRead), 0}, {"/root.txt"});
  EXPECT_EQ(result.err, os::Errno::kEACCES);
}

TEST_F(KernelFixture, PrivilegedPortRequiresRoot) {
  const auto sock = call(Sys::kSocket);
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(call(Sys::kSetuid, {1000}).ok());
  EXPECT_EQ(call(Sys::kBind, {sock.value, 80}).err, os::Errno::kEACCES);
  EXPECT_TRUE(call(Sys::kBind, {sock.value, 8080}).ok());
}

TEST_F(KernelFixture, SocketLifecycleAndEcho) {
  const auto sock = call(Sys::kSocket);
  ASSERT_TRUE(call(Sys::kBind, {sock.value, 8080}).ok());
  ASSERT_TRUE(call(Sys::kListen, {sock.value}).ok());

  std::thread client([&] {
    auto conn = hub.connect(8080);
    ASSERT_TRUE(conn.has_value());
    ASSERT_TRUE(conn->send("hello").has_value());
    EXPECT_EQ(conn->recv(100).value(), "HELLO");
    conn->close();
  });

  const auto conn_fd = call(Sys::kAccept, {sock.value});
  ASSERT_TRUE(conn_fd.ok());
  const auto data = call(Sys::kRead, {conn_fd.value, 100});
  EXPECT_EQ(data.data, "hello");
  EXPECT_TRUE(call(Sys::kWrite, {conn_fd.value}, {"HELLO"}).ok());
  EXPECT_TRUE(call(Sys::kClose, {conn_fd.value}).ok());
  client.join();
}

TEST_F(KernelFixture, GettimeIsMonotonic) {
  const auto t1 = call(Sys::kGettime).value;
  const auto t2 = call(Sys::kGettime).value;
  EXPECT_LT(t1, t2);
}

TEST_F(KernelFixture, ExitMarksProcess) {
  EXPECT_FALSE(kernel.process().exited());
  EXPECT_TRUE(call(Sys::kExit, {3}).ok());
  EXPECT_TRUE(kernel.process().exited());
  EXPECT_EQ(kernel.process().exit_code(), 3);
}

TEST_F(KernelFixture, DetectionSyscallsDegenerateInPlainMode) {
  EXPECT_EQ(call(Sys::kUidValue, {1234}).value, 1234u);
  EXPECT_EQ(call(Sys::kCondChk, {1}).value, 1u);
  EXPECT_EQ(call(Sys::kCcCmp, {static_cast<std::uint64_t>(CcOp::kLt), 3, 5}).value, 1u);
  EXPECT_EQ(call(Sys::kCcCmp, {static_cast<std::uint64_t>(CcOp::kGt), 3, 5}).value, 0u);
}

TEST_F(KernelFixture, SyscallCounterIncrements) {
  const auto before = ctx.syscalls_executed();
  (void)call(Sys::kGetpid);
  (void)call(Sys::kGetpid);
  EXPECT_EQ(ctx.syscalls_executed(), before + 2);
}

TEST_F(KernelFixture, BadFdErrors) {
  EXPECT_EQ(call(Sys::kClose, {42}).err, os::Errno::kEBADF);
  EXPECT_EQ(call(Sys::kRead, {42, 1}).err, os::Errno::kEBADF);
  EXPECT_EQ(call(Sys::kWrite, {42}, {"x"}).err, os::Errno::kEBADF);
  EXPECT_EQ(call(Sys::kListen, {42}).err, os::Errno::kEBADF);
}

TEST_F(KernelFixture, WriteThenSeekThenRead) {
  const auto fd = call(
      Sys::kOpen,
      {static_cast<std::uint64_t>(os::OpenFlags::kReadWrite | os::OpenFlags::kCreate), 0644},
      {"/rw.txt"});
  ASSERT_TRUE(fd.ok());
  EXPECT_TRUE(call(Sys::kWrite, {fd.value}, {"abcdef"}).ok());
  EXPECT_TRUE(call(Sys::kSeek, {fd.value, 2}).ok());
  EXPECT_EQ(call(Sys::kRead, {fd.value, 2}).data, "cd");
}

TEST(CcEval, AllOperators) {
  EXPECT_TRUE(cc_eval(CcOp::kEq, 5, 5));
  EXPECT_TRUE(cc_eval(CcOp::kNeq, 5, 6));
  EXPECT_TRUE(cc_eval(CcOp::kLt, 5, 6));
  EXPECT_TRUE(cc_eval(CcOp::kLeq, 5, 5));
  EXPECT_TRUE(cc_eval(CcOp::kGt, 6, 5));
  EXPECT_TRUE(cc_eval(CcOp::kGeq, 5, 5));
  EXPECT_FALSE(cc_eval(CcOp::kLt, 6, 5));
}

TEST(SyscallMetadata, NamesAndClasses) {
  EXPECT_EQ(sys_name(Sys::kUidValue), "uid_value");
  EXPECT_EQ(sys_class(Sys::kRead), SysClass::kInput);
  EXPECT_EQ(sys_class(Sys::kWrite), SysClass::kOutput);
  EXPECT_EQ(sys_class(Sys::kOpen), SysClass::kOpen);
  EXPECT_EQ(sys_class(Sys::kUidValue), SysClass::kDetection);
  EXPECT_EQ(sys_class(Sys::kSetuid), SysClass::kPerVariant);
  EXPECT_TRUE(returns_uid(Sys::kGeteuid));
  EXPECT_FALSE(returns_uid(Sys::kRead));
}

/// The int slots of `args` whose descriptor role is kUid.
std::vector<std::size_t> uid_slots(const SyscallArgs& args) {
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < args.ints.size(); ++i) {
    if (descriptor(args.no).int_role(i) == ArgRole::kUid) slots.push_back(i);
  }
  return slots;
}

TEST(SyscallMetadata, UidArgumentSlots) {
  SyscallArgs args;
  args.no = Sys::kSetresuid;
  args.ints = {1, 2, 3};
  EXPECT_EQ(uid_slots(args), (std::vector<std::size_t>{0, 1, 2}));
  args.no = Sys::kCcCmp;
  args.ints = {0, 10, 20};
  EXPECT_EQ(uid_slots(args), (std::vector<std::size_t>{1, 2}));
  args.no = Sys::kRead;
  EXPECT_TRUE(uid_slots(args).empty());
}

TEST(SyscallMetadata, ASeventhIntDoesNotFit) {
  SyscallArgs args;
  args.no = Sys::kSetgroups;
  args.ints = {1, 2, 3, 4, 5, 6};
  EXPECT_THROW(args.ints.push_back(7), std::length_error);
  EXPECT_THROW((SyscallInts{1, 2, 3, 4, 5, 6, 7}), std::length_error);
  EXPECT_EQ(args.ints.size(), SyscallInts::kCapacity);
  EXPECT_EQ(args.ints.at(5), 6u);
  EXPECT_THROW((void)SyscallInts{1}.at(1), std::out_of_range);
}

}  // namespace
}  // namespace nv::vkernel
