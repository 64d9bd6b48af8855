#include "attack/attack.h"

#include <memory>
#include <stdexcept>

#include "attack/victims.h"
#include "guest/runners.h"
#include "util/strings.h"
#include "variants/registry.h"
#include "vkernel/vm.h"

namespace nv::attack {

std::string_view to_string(AttackKind kind) noexcept {
  switch (kind) {
    case AttackKind::kUidFullWord: return "uid-full-word";
    case AttackKind::kUidLowByte: return "uid-low-byte";
    case AttackKind::kUidHighBitFlip: return "uid-high-bit-flip";
    case AttackKind::kAddressInjection: return "absolute-address-injection";
    case AttackKind::kPointerLowBytes: return "pointer-low-bytes";
    case AttackKind::kCodeInjection: return "code-injection";
    case AttackKind::kLinearOverrun: return "linear-buffer-overrun";
  }
  return "?";
}

std::string_view to_string(DefenseKind kind) noexcept {
  switch (kind) {
    case DefenseKind::kSingleProcess: return "single-process";
    case DefenseKind::kDualIdentical: return "2-variant-identical";
    case DefenseKind::kAddressPartitioning: return "address-partitioning";
    case DefenseKind::kExtendedPartitioning: return "extended-partitioning";
    case DefenseKind::kInstructionTagging: return "instruction-tagging";
    case DefenseKind::kUidVariation: return "uid-variation";
    case DefenseKind::kUidPlusAddress: return "uid+address";
    case DefenseKind::kStackReversal: return "stack-reversal";
  }
  return "?";
}

std::string_view to_string(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::kSucceeded: return "SUCCEEDED";
    case Outcome::kDetected: return "detected";
    case Outcome::kCrashed: return "crashed";
    case Outcome::kNoEffect: return "no-effect";
  }
  return "?";
}

namespace {

std::unique_ptr<guest::GuestProgram> victim_for(AttackKind attack) {
  switch (attack) {
    case AttackKind::kUidFullWord:
    case AttackKind::kUidLowByte:
    case AttackKind::kUidHighBitFlip:
      return std::make_unique<UidVictim>();
    case AttackKind::kAddressInjection:
    case AttackKind::kPointerLowBytes:
      return std::make_unique<AddressVictim>();
    case AttackKind::kCodeInjection:
      return std::make_unique<CodeVictim>();
    case AttackKind::kLinearOverrun:
      return std::make_unique<StackVictim>();
  }
  return nullptr;
}

/// The attacker's one concrete input. Keys are public (no secrets!), so the
/// payload is built with full knowledge of variant 0's parameters.
std::string spec_for(AttackKind attack, DefenseKind defense) {
  switch (attack) {
    case AttackKind::kUidFullWord:
      return "uid-word 0x0";
    case AttackKind::kUidLowByte:
      return "uid-byte 0x0";
    case AttackKind::kUidHighBitFlip:
      return "uid-bitflip 0x80000000";
    case AttackKind::kAddressInjection:
      // Variant 0's data region base + the secret offset.
      return util::format("ptr-abs 0x%llx", static_cast<unsigned long long>(
                                                0x10000000ULL + AddressVictim::kSecretAOffset));
    case AttackKind::kPointerLowBytes:
      return util::format("ptr-low 0x%llx",
                          static_cast<unsigned long long>(AddressVictim::kSecretBOffset));
    case AttackKind::kCodeInjection: {
      // setuid(0); halt — tagged for variant 0 (tag is public knowledge).
      const std::uint8_t tag =
          defense == DefenseKind::kInstructionTagging ? std::uint8_t{0xA0} : std::uint8_t{0x00};
      vkernel::VmProgram payload;
      payload.load_imm(0, 0).sys_setuid().halt();
      std::string spec = "code";
      for (std::uint8_t byte : payload.assemble(tag)) {
        spec += util::format(" %02x", byte);
      }
      return spec;
    }
    case AttackKind::kLinearOverrun:
      // Run four bytes past the buffer end, zeroing whatever lives there.
      return util::format("overrun %u", StackVictim::kBufferSize + 4);
  }
  return "none";
}

void seed_trusted_files(vfs::FileSystem& fs) {
  const auto root = os::Credentials::root();
  (void)fs.mkdir_p("/etc", root);
  (void)fs.write_file("/etc/passwd",
                      "root:x:0:0:root:/root:/bin/sh\nwww:x:33:33:w:/var/www:/bin/f\n", root);
  (void)fs.write_file("/etc/group", "root:x:0:\nwww:x:33:\n", root);
}

/// Defense configurations expressed as registry policies: each defense is a
/// named-variation list, exactly the open-ended-catalog framing of Table 1.
std::vector<core::VariationPtr> defense_variations(DefenseKind defense) {
  const auto& registry = variants::builtin_registry();
  const auto make = [&registry](std::string_view name,
                                const core::VariationParams& params = {}) {
    auto variation = registry.make(name, params);
    if (!variation) throw std::logic_error("defense setup: " + variation.error());
    return *variation;
  };
  switch (defense) {
    case DefenseKind::kSingleProcess:
    case DefenseKind::kDualIdentical:
      return {};
    case DefenseKind::kAddressPartitioning:
      return {make("address-partitioning")};
    case DefenseKind::kExtendedPartitioning:
      return {make("extended-address-partitioning",
                   core::VariationParams{{"seed", std::uint64_t{1234}}})};
    case DefenseKind::kInstructionTagging:
      return {make("instruction-tagging")};
    case DefenseKind::kUidVariation:
      return {make("uid-xor")};
    case DefenseKind::kUidPlusAddress:
      return {make("uid-xor"), make("address-partitioning")};
    case DefenseKind::kStackReversal:
      return {make("stack-reversal")};
  }
  return {};
}

Outcome classify_plain(const guest::PlainRunResult& result) {
  if (result.faulted) return Outcome::kCrashed;
  if (result.exit_code == kCompromisedExit) return Outcome::kSucceeded;
  return Outcome::kNoEffect;
}

Outcome classify_mvee(const core::RunReport& report) {
  if (report.attack_detected) return Outcome::kDetected;
  bool all_compromised = !report.exit_codes.empty();
  for (int code : report.exit_codes) all_compromised = all_compromised && code == kCompromisedExit;
  if (all_compromised) return Outcome::kSucceeded;
  return Outcome::kNoEffect;
}

}  // namespace

Outcome run_attack(AttackKind attack, DefenseKind defense) {
  const auto victim = victim_for(attack);
  const std::string spec = spec_for(attack, defense);
  const auto root = os::Credentials::root();

  if (defense == DefenseKind::kSingleProcess) {
    vfs::FileSystem fs;
    vkernel::SocketHub hub;
    vkernel::KernelContext ctx(fs, hub);
    seed_trusted_files(fs);  // same fixture as the MVEE runs, for comparability
    (void)fs.write_file(kSpecPath, spec, root);
    return classify_plain(guest::run_plain(ctx, *victim));
  }

  core::NVariantSystem::Builder builder;
  for (auto& variation : defense_variations(defense)) builder.variation(std::move(variation));
  const auto system = builder.build();
  seed_trusted_files(system->fs());
  (void)system->fs().write_file(kSpecPath, spec, root);
  return classify_mvee(guest::run_nvariant(*system, *victim));
}

Outcome expected_outcome(AttackKind attack, DefenseKind defense) {
  using A = AttackKind;
  using D = DefenseKind;
  using O = Outcome;
  switch (attack) {
    case A::kUidFullWord:
    case A::kUidLowByte:
      // Only the UID variation's disjoint reexpression catches data-only UID
      // corruption; redundancy and address/instruction diversity do not.
      return (defense == D::kUidVariation || defense == D::kUidPlusAddress) ? O::kDetected
                                                                            : O::kSucceeded;
    case A::kUidHighBitFlip:
      // The §3.2 gap: the unflipped high bit escapes detection everywhere —
      // but the flipped value is not a usable identity, so the attacker
      // gains nothing either.
      return O::kNoEffect;
    case A::kAddressInjection:
      return (defense == D::kAddressPartitioning || defense == D::kExtendedPartitioning ||
              defense == D::kUidPlusAddress)
                 ? O::kDetected
                 : O::kSucceeded;
    case A::kPointerLowBytes:
      // §2.3: plain partitioning is vulnerable to partial pointer overwrites;
      // only the extended variant's per-variant offset breaks them.
      return defense == D::kExtendedPartitioning ? O::kDetected : O::kSucceeded;
    case A::kCodeInjection:
      // Tagging traps the tag mismatch; the UID variation catches THIS
      // payload (it attacks the UID interface) at the setuid boundary.
      return (defense == D::kInstructionTagging || defense == D::kUidVariation ||
              defense == D::kUidPlusAddress)
                 ? O::kDetected
                 : O::kSucceeded;
    case A::kLinearOverrun:
      // Caught by data diversity (different UID meanings) and by stack
      // reversal (different data corrupted per variant, Franz [20]).
      return (defense == D::kUidVariation || defense == D::kUidPlusAddress ||
              defense == D::kStackReversal)
                 ? O::kDetected
                 : O::kSucceeded;
  }
  return O::kNoEffect;
}

}  // namespace nv::attack
