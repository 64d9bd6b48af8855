// Simulated address space faults and the tagged-bytecode VM.
#include <gtest/gtest.h>

#include "vkernel/kernel.h"
#include "vkernel/memory.h"
#include "vkernel/vm.h"

namespace nv::vkernel {
namespace {

TEST(AddressSpace, LoadStoreRoundTrip) {
  AddressSpace mem;
  mem.map(0x1000, 4096);
  mem.store_u8(0x1000, 0xAB);
  EXPECT_EQ(mem.load_u8(0x1000), 0xAB);
  mem.store_u32(0x1010, 0xDEADBEEF);
  EXPECT_EQ(mem.load_u32(0x1010), 0xDEADBEEFu);
  mem.store_u64(0x1020, 0x0123456789ABCDEFULL);
  EXPECT_EQ(mem.load_u64(0x1020), 0x0123456789ABCDEFULL);
}

TEST(AddressSpace, LittleEndianLayout) {
  AddressSpace mem;
  mem.map(0x1000, 4096);
  mem.store_u32(0x1000, 0x04030201);
  EXPECT_EQ(mem.load_u8(0x1000), 0x01);
  EXPECT_EQ(mem.load_u8(0x1003), 0x04);
}

TEST(AddressSpace, UnmappedAccessFaults) {
  AddressSpace mem;
  EXPECT_THROW((void)mem.load_u8(0x5000), MemoryFault);
  EXPECT_THROW(mem.store_u32(0x5000, 1), MemoryFault);
  mem.map(0x5000, 8);
  EXPECT_NO_THROW(mem.store_u32(0x5000, 1));
}

TEST(AddressSpace, FaultCarriesAddress) {
  AddressSpace mem;
  try {
    (void)mem.load_u8(0xDEAD0000);
    FAIL() << "expected fault";
  } catch (const MemoryFault& fault) {
    EXPECT_EQ(fault.address, 0xDEAD0000u);
  }
}

TEST(AddressSpace, CrossPageAccessNeedsBothPages) {
  AddressSpace mem;
  mem.map(0x1000, 4096);  // one page: [0x1000, 0x2000)
  EXPECT_THROW((void)mem.load_u32(0x1FFE), MemoryFault);
  mem.map(0x2000, 1);
  EXPECT_NO_THROW((void)mem.load_u32(0x1FFE));
}

TEST(AddressSpace, LazyPagesReadZeroUntilStored) {
  AddressSpace mem;
  mem.map(0x100000, 1 << 20);  // 256 pages, none allocated yet
  EXPECT_EQ(mem.load_u64(0x100000), 0u);
  EXPECT_EQ(mem.load_u64(0x1FFFF8), 0u);
  EXPECT_EQ(mem.load_string(0x180000, 16), "");
  mem.store_u32(0x180010, 0xCAFEF00D);  // first store zero-fills the page
  EXPECT_EQ(mem.load_u32(0x180010), 0xCAFEF00Du);
  EXPECT_EQ(mem.load_u32(0x18000C), 0u);
  EXPECT_EQ(mem.load_u32(0x180014), 0u);
  EXPECT_EQ(mem.load_u8(0x180FFF), 0u);
}

TEST(AddressSpace, UnmappedAccessFaultsBesideLazyPages) {
  AddressSpace mem;
  mem.map(0x1000, 4096);
  EXPECT_THROW((void)mem.load_u8(0x2000), MemoryFault);   // just past the mapping
  EXPECT_THROW(mem.store_u8(0x0FFF, 1), MemoryFault);     // just before it
  EXPECT_THROW((void)mem.load_u32(0x1FFE), MemoryFault);  // straddles the end
  EXPECT_NO_THROW((void)mem.load_u8(0x1FFF));
  EXPECT_EQ(mem.mapped_pages(), 1u);
}

TEST(AddressSpace, MappedPagesCountsMappedNotTouched) {
  AddressSpace mem;
  mem.map(0x1000, 4 * 4096);  // pages 0x1000..0x4000
  EXPECT_EQ(mem.mapped_pages(), 4u);
  mem.store_u8(0x2000, 7);
  EXPECT_EQ(mem.mapped_pages(), 4u);
  mem.map(0x3000, 4 * 4096);  // overlaps: 0x1000..0x6000
  EXPECT_EQ(mem.mapped_pages(), 6u);
  mem.map(0x7000, 4096);  // abuts: 0x1000..0x7000
  EXPECT_EQ(mem.mapped_pages(), 7u);
  EXPECT_TRUE(mem.is_mapped(0x1000, 7 * 4096));
  mem.map(0x9000, 4096);  // a hole at 0x8000
  EXPECT_EQ(mem.mapped_pages(), 8u);
  EXPECT_FALSE(mem.is_mapped(0x7000, 3 * 4096));
  EXPECT_THROW((void)mem.load_u8(0x8000), MemoryFault);
  mem.map(0x1000, 4096);  // remapping is idempotent and keeps the data
  EXPECT_EQ(mem.mapped_pages(), 8u);
  EXPECT_EQ(mem.load_u8(0x2000), 7u);
}

TEST(AddressSpace, AllocBumpsAndMaps) {
  AddressSpace mem;
  mem.set_alloc_base(0x10000);
  const auto a = mem.alloc(100);
  const auto b = mem.alloc(100);
  EXPECT_EQ(a, 0x10000u);
  EXPECT_GE(b, a + 100);
  EXPECT_TRUE(mem.is_mapped(a, 100));
  EXPECT_TRUE(mem.is_mapped(b, 100));
}

TEST(AddressSpace, AllocAlignment) {
  AddressSpace mem;
  mem.set_alloc_base(0x10001);
  EXPECT_EQ(mem.alloc(8, 16) % 16, 0u);
}

TEST(AddressSpace, StringHelpers) {
  AddressSpace mem;
  mem.map(0x1000, 4096);
  mem.store_string(0x1000, "hello");
  EXPECT_EQ(mem.load_string(0x1000, 100), "hello");
  EXPECT_EQ(mem.load_string(0x1000, 3), "hel");
}

struct VmFixture : ::testing::Test {
  vfs::FileSystem fs;
  SocketHub hub;
  KernelContext ctx{fs, hub};
  PlainKernel kernel{ctx, "vm-test"};

  AddressSpace& mem() { return kernel.process().memory(); }
};

TEST_F(VmFixture, ArithmeticAndEmit) {
  VmProgram prog;
  prog.load_imm(0, 40).load_imm(1, 2).add(0, 1).emit().halt();
  const auto image = prog.assemble(0x5A);
  mem().map(0x4000, image.size());
  mem().store_bytes(0x4000, image);
  const auto result = vm_run(mem(), 0x4000, 0x5A, kernel);
  ASSERT_TRUE(result.halted);
  EXPECT_EQ(result.output, (std::vector<std::uint32_t>{42}));
}

TEST_F(VmFixture, XorAndMov) {
  VmProgram prog;
  prog.load_imm(0, 0xFF).load_imm(1, 0x0F).xor_(0, 1).mov(2, 0).emit().halt();
  const auto image = prog.assemble(0x01);
  mem().map(0x4000, image.size());
  mem().store_bytes(0x4000, image);
  const auto result = vm_run(mem(), 0x4000, 0x01, kernel);
  EXPECT_EQ(result.regs[2], 0xF0u);
}

TEST_F(VmFixture, WrongTagFaultsImmediately) {
  VmProgram prog;
  prog.load_imm(0, 1).halt();
  const auto image = prog.assemble(0xA0);
  mem().map(0x4000, image.size());
  mem().store_bytes(0x4000, image);
  try {
    (void)vm_run(mem(), 0x4000, 0xA1, kernel);
    FAIL() << "expected TagFault";
  } catch (const TagFault& fault) {
    EXPECT_EQ(fault.expected, 0xA1);
    EXPECT_EQ(fault.found, 0xA0);
    EXPECT_EQ(fault.address, 0x4000u);
  }
}

TEST_F(VmFixture, SyscallOpcodesReachKernel) {
  VmProgram prog;
  // setuid(1000) then geteuid -> emit.
  prog.load_imm(0, 1000).sys_setuid().sys_geteuid().emit().halt();
  const auto image = prog.assemble(0x10);
  mem().map(0x4000, image.size());
  mem().store_bytes(0x4000, image);
  const auto result = vm_run(mem(), 0x4000, 0x10, kernel);
  EXPECT_EQ(result.output, (std::vector<std::uint32_t>{1000}));
  EXPECT_EQ(kernel.process().creds().euid, 1000u);
}

TEST_F(VmFixture, LoopWithJnz) {
  VmProgram prog;
  // r0 = 3; loop: r0 += (-1); jnz r0 -> loop; emit r1 (counts iterations)
  prog.load_imm(0, 3)
      .load_imm(2, 0xFFFFFFFF)  // -1
      .load_imm(1, 0)
      .load_imm(3, 1)
      .add(0, 2)   // index 4: r0 -= 1
      .add(1, 3)   // r1 += 1
      .jnz(0, -2)  // back to the add at relative -2
      .emit()
      .halt();
  const auto image = prog.assemble(0x22);
  mem().map(0x4000, image.size());
  mem().store_bytes(0x4000, image);
  auto result = vm_run(mem(), 0x4000, 0x22, kernel);
  ASSERT_TRUE(result.halted);
  EXPECT_EQ(result.regs[1], 3u);
}

TEST_F(VmFixture, StepBudgetStopsRunawayCode) {
  VmProgram prog;
  prog.load_imm(0, 1).jnz(0, 0);  // jump-to-self forever
  const auto image = prog.assemble(0x33);
  mem().map(0x4000, image.size());
  mem().store_bytes(0x4000, image);
  const auto result = vm_run(mem(), 0x4000, 0x33, kernel, 50);
  EXPECT_FALSE(result.halted);
  EXPECT_EQ(result.steps, 50u);
}

TEST_F(VmFixture, ExecutingUnmappedMemoryFaults) {
  EXPECT_THROW((void)vm_run(mem(), 0x9999000, 0x00, kernel), MemoryFault);
}

TEST(VmInstruction, EncodedSizes) {
  EXPECT_EQ(VmInstruction::encoded_size(Opcode::kLoadImm), 6u);
  EXPECT_EQ(VmInstruction::encoded_size(Opcode::kAdd), 3u);
  EXPECT_EQ(VmInstruction::encoded_size(Opcode::kHalt), 1u);
}

TEST(VmProgram, AssembleTagsEveryInstruction) {
  VmProgram prog;
  prog.load_imm(0, 7).emit().halt();
  const auto image = prog.assemble(0xEE);
  // tag + loadimm(6) + tag + emit(1) + tag + halt(1)
  ASSERT_EQ(image.size(), 1u + 6 + 1 + 1 + 1 + 1);
  EXPECT_EQ(image[0], 0xEE);
  EXPECT_EQ(image[7], 0xEE);
  EXPECT_EQ(image[9], 0xEE);
}

}  // namespace
}  // namespace nv::vkernel
