#include "core/alarm.h"

#include <cctype>

namespace nv::core {

namespace {

bool is_syscall_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
}

/// "uid_value: canonical arguments diverge ..." -> "uid_value". Extracted
/// from the already-collapsed SHAPE, and the first character must be a
/// letter: a detail that leads with a raw diversified value ("4099: ...")
/// must yield NO attribution, not a per-session pseudo-syscall that would
/// split one campaign into N signatures.
std::string leading_syscall(const std::string& shape) {
  const std::size_t colon = shape.find(':');
  if (colon == std::string::npos || colon == 0) return {};
  if (shape[0] < 'a' || shape[0] > 'z') return {};
  for (std::size_t i = 1; i < colon; ++i) {
    if (!is_syscall_char(shape[i])) return {};
  }
  return shape.substr(0, colon);
}

/// Collapse every numeric literal (hex "0x..." or decimal run) to '#': the
/// numbers are the per-session diversified values, exactly what must NOT
/// distinguish two incidents of the same campaign.
std::string collapse_numbers(const std::string& text) {
  std::string shape;
  shape.reserve(text.size());
  for (std::size_t i = 0; i < text.size();) {
    const char c = text[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      if (c == '0' && i + 1 < text.size() && (text[i + 1] == 'x' || text[i + 1] == 'X')) {
        i += 2;
        while (i < text.size() && std::isxdigit(static_cast<unsigned char>(text[i]))) ++i;
      } else {
        while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) ++i;
      }
      shape += '#';
      continue;
    }
    shape += c;
    ++i;
  }
  return shape;
}

}  // namespace

std::string_view to_string(AlarmKind kind) noexcept {
  switch (kind) {
    case AlarmKind::kSyscallMismatch: return "syscall-mismatch";
    case AlarmKind::kArgumentMismatch: return "argument-mismatch";
    case AlarmKind::kUidCheckFailed: return "uid-check-failed";
    case AlarmKind::kConditionMismatch: return "condition-mismatch";
    case AlarmKind::kMemoryFault: return "memory-fault";
    case AlarmKind::kTagFault: return "tag-fault";
    case AlarmKind::kExitDivergence: return "exit-divergence";
    case AlarmKind::kRendezvousStall: return "rendezvous-stall";
    case AlarmKind::kGuestError: return "guest-error";
  }
  return "alarm?";
}

std::string Alarm::describe() const {
  std::string out{to_string(kind)};
  if (variant != kAllVariants) {
    out += " (variant ";
    out += std::to_string(variant);
    out += ")";
  }
  if (!detail.empty()) {
    out += ": ";
    out += detail;
  }
  return out;
}

AlarmSignature signature_of(const Alarm& alarm) {
  AlarmSignature signature;
  signature.kind = alarm.kind;
  signature.shape = collapse_numbers(alarm.detail);
  signature.syscall = leading_syscall(signature.shape);
  return signature;
}

std::string AlarmSignature::key() const {
  std::string out{to_string(kind)};
  out += '|';
  out += syscall;
  out += '|';
  out += shape;
  return out;
}

std::string AlarmSignature::describe() const {
  std::string out{to_string(kind)};
  if (!syscall.empty()) {
    out += " via ";
    out += syscall;
  }
  if (!shape.empty()) {
    out += " [";
    out += shape;
    out += "]";
  }
  return out;
}

}  // namespace nv::core
