#include "attack/victims.h"

#include "util/strings.h"
#include "vkernel/vm.h"

namespace nv::attack {

namespace {

struct Spec {
  std::string op = "none";
  std::uint64_t value = 0;
};

Spec read_spec(guest::GuestContext& ctx) {
  Spec spec;
  auto content = ctx.read_file(kSpecPath);
  if (!content) return spec;
  std::string_view rest = *content;
  if (const std::string_view op = util::pop_token(rest); !op.empty()) spec.op = op;
  spec.value = util::parse_u64(util::pop_token(rest)).value_or(0);
  return spec;
}

}  // namespace

void UidVictim::run(guest::GuestContext& ctx) {
  const os::uid_t worker = ctx.uid_const(33);

  // Worker identity lives in simulated memory (what the overflow corrupts).
  const std::uint64_t uid_addr = ctx.alloc(4);
  ctx.memory().store_u32(uid_addr, worker);

  // Drop effective privileges, keeping saved-root for the restore path.
  if (ctx.seteuid(worker) != os::Errno::kOk) ctx.exit(2);

  // The "vulnerability": the attacker's spec corrupts the stored UID with
  // identical raw bytes in every variant.
  const Spec spec = read_spec(ctx);
  if (spec.op == "uid-word") {
    ctx.memory().store_u32(uid_addr, static_cast<std::uint32_t>(spec.value));
  } else if (spec.op == "uid-byte") {
    ctx.memory().store_u8(uid_addr, static_cast<std::uint8_t>(spec.value));
  } else if (spec.op == "uid-bitflip") {
    ctx.memory().store_u32(uid_addr,
                           ctx.memory().load_u32(uid_addr) ^ static_cast<std::uint32_t>(spec.value));
  }

  // Privilege restore from the (possibly corrupted) stored value. uid_value
  // is the §3.5 exposure point; the seteuid syscall itself is the fallback
  // detection boundary.
  os::uid_t restore = ctx.memory().load_u32(uid_addr);
  restore = ctx.uid_value(restore);
  (void)ctx.seteuid(restore);

  // Equality comparison is representation-independent, so checking for root
  // locally behaves identically in every variant.
  const bool compromised = ctx.geteuid() == ctx.uid_const(os::kRootUid);
  if (compromised) ctx.exit(kCompromisedExit);
}

void AddressVictim::run(guest::GuestContext& ctx) {
  // A 64 KiB data region at the variant's (variation-chosen) base.
  const std::uint64_t base = ctx.alloc(0x10000);
  ctx.memory().store_u32(base + kSecretAOffset, kSecretA);
  ctx.memory().store_u32(base + kSecretBOffset, kSecretB);

  const std::uint64_t ptr_slot = ctx.alloc(8);
  ctx.memory().store_u64(ptr_slot, base + kSecretAOffset);

  const Spec spec = read_spec(ctx);
  if (spec.op == "ptr-abs") {
    ctx.memory().store_u64(ptr_slot, spec.value);  // injected absolute pointer
  } else if (spec.op == "ptr-low") {
    // Partial overwrite: replace only the 3 low-order bytes (§2.3's partial
    // value injection).
    const std::uint64_t original = ctx.memory().load_u64(ptr_slot);
    ctx.memory().store_u64(ptr_slot, (original & ~0xFFFFFFULL) | (spec.value & 0xFFFFFF));
  }

  // Dereference: faults (and alarms) when the pointer leaves this variant's
  // partition.
  const std::uint64_t pointer = ctx.memory().load_u64(ptr_slot);
  const std::uint32_t leaked = ctx.memory().load_u32(pointer);

  const bool attacker_win =
      (spec.op != "none") && (leaked == kSecretA || leaked == kSecretB);
  if (attacker_win) ctx.exit(kCompromisedExit);
}

void CodeVictim::run(guest::GuestContext& ctx) {
  // Load and run a benign tagged program (the trusted code path).
  vkernel::VmProgram trusted;
  trusted.load_imm(0, 7).emit().halt();
  const auto trusted_image = trusted.assemble(ctx.config().code_tag);
  const std::uint64_t code_base = ctx.alloc(trusted_image.size() + 64);
  ctx.memory().store_bytes(code_base, trusted_image);
  (void)ctx.execute_code(code_base);

  if (ctx.seteuid(ctx.uid_const(33)) != os::Errno::kOk) ctx.exit(2);

  const Spec spec = read_spec(ctx);
  if (spec.op == "code") {
    // The spec value is unused; injected bytes follow as hex pairs after the
    // op token. Re-read raw to keep the spec format simple.
    auto content = ctx.read_file(kSpecPath);
    std::vector<std::uint8_t> injected;
    if (content) {
      std::string_view rest = *content;
      (void)util::pop_token(rest);  // the op
      for (std::string_view pair = util::pop_token(rest); !pair.empty();
           pair = util::pop_token(rest)) {
        if (auto byte = util::parse_uint<std::uint8_t>("0x" + std::string(pair))) {
          injected.push_back(*byte);
        }
      }
    }
    const std::uint64_t inject_base = ctx.alloc(injected.size() + 8);
    ctx.memory().store_bytes(inject_base, injected);
    // The hijacked control transfer: execution lands in attacker bytes. The
    // VM checks this variant's tag on every instruction.
    (void)ctx.execute_code(inject_base);
  }

  const bool compromised = ctx.geteuid() == ctx.uid_const(os::kRootUid);
  if (compromised) ctx.exit(kCompromisedExit);
}

void StackVictim::run(guest::GuestContext& ctx) {
  const os::uid_t worker = ctx.uid_const(33);

  // Simulated stack frame: buffer and saved UID adjacent, with the order
  // depending on the variant's stack growth direction. Padding on the far
  // side keeps the overrun inside mapped memory either way.
  const std::uint64_t frame = ctx.alloc(kBufferSize + 4 + kBufferSize);
  std::uint64_t buffer_addr = 0;
  std::uint64_t uid_addr = 0;
  if (ctx.config().reverse_stack) {
    uid_addr = frame;                  // UID below the buffer: overrun misses it
    buffer_addr = frame + 4;
  } else {
    buffer_addr = frame;               // UID right after the buffer: classic layout
    uid_addr = frame + kBufferSize;
  }
  ctx.memory().store_u32(uid_addr, worker);

  if (ctx.seteuid(worker) != os::Errno::kOk) ctx.exit(2);

  auto spec = ctx.read_file(kSpecPath);
  if (spec) {
    std::string_view rest = *spec;
    if (util::pop_token(rest) == "overrun") {
      const auto len = util::parse_u64(util::pop_token(rest)).value_or(0);
      for (std::uint64_t i = 0; i < len; ++i) ctx.memory().store_u8(buffer_addr + i, 0);
    }
  }

  os::uid_t restore = ctx.memory().load_u32(uid_addr);
  restore = ctx.uid_value(restore);
  (void)ctx.seteuid(restore);
  const bool compromised = ctx.geteuid() == ctx.uid_const(os::kRootUid);
  if (compromised) ctx.exit(kCompromisedExit);
}

}  // namespace nv::attack
