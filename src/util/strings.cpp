#include "util/strings.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace nv::util {

namespace {

/// Whether `c` is whitespace, as pop_token() and trim() define it.
constexpr bool is_space(char c) noexcept { return c == ' ' || (c >= '\t' && c <= '\r'); }

constexpr char ascii_lower(char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace

std::string_view pop_token(std::string_view& rest) noexcept {
  std::size_t begin = 0;
  while (begin < rest.size() && is_space(rest[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest.size() && !is_space(rest[end])) ++end;
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

std::string_view trim(std::string_view text) noexcept {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && is_space(text[begin])) ++begin;
  while (end > begin && is_space(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = ascii_lower(c);
  return out;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}

std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept {
  constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
  const std::string_view t = trim(text);
  if (t.empty()) return std::nullopt;
  int base = 10;
  std::size_t i = 0;
  if (t.size() > 2 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X')) {
    base = 16;
    i = 2;
  }
  std::uint64_t value = 0;
  for (; i < t.size(); ++i) {
    const char c = t[i];
    int digit = -1;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (base == 16 && c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (base == 16 && c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    if (digit < 0) return std::nullopt;
    const auto radix = static_cast<std::uint64_t>(base);
    const auto d = static_cast<std::uint64_t>(digit);
    if (value > (kMaxU64 - d) / radix) return std::nullopt;  // value * radix + d would wrap
    value = value * radix + d;
  }
  return value;
}

std::optional<std::int64_t> parse_i64(std::string_view text) noexcept {
  std::string_view t = trim(text);
  bool negative = false;
  if (!t.empty() && (t[0] == '-' || t[0] == '+')) {
    negative = t[0] == '-';
    t.remove_prefix(1);
  }
  const auto magnitude = parse_u64(t);
  if (!magnitude) return std::nullopt;
  const auto max = static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  if (*magnitude > max + (negative ? 1 : 0)) return std::nullopt;
  // Negated in unsigned arithmetic, since -2^63 has no positive int64 to negate.
  return static_cast<std::int64_t>(negative ? 0 - *magnitude : *magnitude);
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

std::string hex32(std::uint32_t value) { return format("0x%08x", value); }

std::string replace_all(std::string_view text, std::string_view from, std::string_view to) {
  if (from.empty()) return std::string(text);
  std::string out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(text.substr(start));
      return out;
    }
    out.append(text.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
}

}  // namespace nv::util
