// Divergence alarms raised by the monitor (§2's detection property made
// concrete).
#ifndef NV_CORE_ALARM_H
#define NV_CORE_ALARM_H

#include <string>
#include <string_view>

namespace nv::core {

enum class AlarmKind {
  kSyscallMismatch,    // variants issued different syscalls
  kArgumentMismatch,   // same syscall, different canonicalized arguments
  kUidCheckFailed,     // uid_value / cc_* detected inconsistent UID meanings
  kConditionMismatch,  // cond_chk saw variants on different control paths
  kMemoryFault,        // simulated SIGSEGV in one variant
  kTagFault,           // instruction tag violation in one variant
  kExitDivergence,     // one variant exited while others continued
  kRendezvousStall,    // every live variant parked at a rendezvous, none able to proceed
  kGuestError,         // unexpected guest exception
};

[[nodiscard]] std::string_view to_string(AlarmKind kind) noexcept;

struct Alarm {
  AlarmKind kind = AlarmKind::kGuestError;
  /// Variant that triggered the alarm, or kAllVariants for cross-variant
  /// comparisons where no single variant is "the" trigger.
  unsigned variant = kAllVariants;
  std::string detail;

  static constexpr unsigned kAllVariants = ~0U;

  [[nodiscard]] std::string describe() const;
};

/// Diversity-independent classification of an alarm, the unit of cross-session
/// correlation: the same attack payload hitting two differently-diversified
/// sessions produces different raw values (each session drew its own masks)
/// but the SAME signature — alarm kind, the syscall that tripped the monitor,
/// and the shape of the offending values with every numeric literal collapsed.
/// The variant index is deliberately excluded: which variant's reexpression
/// broke first is itself a function of the per-session diversity draw.
struct AlarmSignature {
  AlarmKind kind = AlarmKind::kGuestError;
  /// The monitor prefixes comparison alarms with "<syscall>: ..."; empty when
  /// the detail carries no syscall attribution (guest errors, faults).
  std::string syscall;
  /// Alarm detail with numeric literals (hex and decimal) replaced by '#'.
  std::string shape;

  [[nodiscard]] bool operator==(const AlarmSignature&) const = default;
  /// Stable map key: "<kind>|<syscall>|<shape>".
  [[nodiscard]] std::string key() const;
  [[nodiscard]] std::string describe() const;
};

/// Derive the correlation signature from one alarm.
[[nodiscard]] AlarmSignature signature_of(const Alarm& alarm);

}  // namespace nv::core

#endif  // NV_CORE_ALARM_H
