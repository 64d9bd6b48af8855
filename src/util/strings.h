// Small string helpers shared across modules (no locale dependence).
#ifndef NV_UTIL_STRINGS_H
#define NV_UTIL_STRINGS_H

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nv::util {

/// Walks a text field by field, splitting on one separator and keeping empty
/// fields, each field a view of the text's own characters: "a::b" yields
/// "a", "", "b"; "a:" yields "a", ""; "" yields one empty field.
///
///   for (util::SplitCursor lines(text, '\n'); !lines.done();) {
///     const std::string_view line = lines.next();
///   }
class SplitCursor {
 public:
  SplitCursor(std::string_view text, char sep) noexcept : rest_(text), sep_(sep) {}

  /// Whether every field has been returned.
  [[nodiscard]] bool done() const noexcept { return done_; }

  /// Returns the next field and moves past it and the separator after it;
  /// returns an empty view once done().
  std::string_view next() noexcept {
    const std::size_t end = rest_.find(sep_);
    const std::string_view field = rest_.substr(0, end);
    if (end == std::string_view::npos) {
      done_ = true;
      rest_ = {};
    } else {
      rest_.remove_prefix(end + 1);
    }
    return field;
  }

 private:
  std::string_view rest_;
  char sep_;
  bool done_ = false;
};

/// Removes the leading whitespace of `rest` and the token after it, and
/// returns that token as a view of the same characters; returns an empty
/// view once only whitespace is left. What follows the token stays in
/// `rest`. Walking " a\tb  c\n" yields "a", "b", "c", then "". Whitespace
/// here and in trim() is ASCII: space, \t, \n, \v, \f and \r, the bytes
/// std::isspace accepts in the "C" locale.
[[nodiscard]] std::string_view pop_token(std::string_view& rest) noexcept;

/// `text` without the whitespace at either end, as a view of it.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII letters lowered; every other byte kept.
[[nodiscard]] std::string to_lower(std::string_view text);

/// Whether `a` and `b` are equal when ASCII letters are compared without
/// regard to case: iequals("Listen", "listen").
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

/// Parse a decimal (or 0x-prefixed hex) unsigned integer, surrounding
/// whitespace allowed; nullopt when it is not one or exceeds UINT64_MAX.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept;
/// As parse_u64 after an optional sign; nullopt outside the int64 range.
[[nodiscard]] std::optional<std::int64_t> parse_i64(std::string_view text) noexcept;

/// parse_u64 for a field of type `Uint`: nullopt when the value does not
/// fit, so that "65616" never reads as a port of 80.
template <typename Uint>
[[nodiscard]] std::optional<Uint> parse_uint(std::string_view text) noexcept {
  const auto value = parse_u64(text);
  if (!value || *value > std::numeric_limits<Uint>::max()) return std::nullopt;
  return static_cast<Uint>(*value);
}

/// printf-style formatting into a std::string (std::format is unavailable on
/// this toolchain).
[[nodiscard]] std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Hex rendering of a 32-bit value, zero padded: "0x7fffffff".
[[nodiscard]] std::string hex32(std::uint32_t value);

/// Replace all occurrences of `from` with `to`.
[[nodiscard]] std::string replace_all(std::string_view text, std::string_view from,
                                      std::string_view to);

}  // namespace nv::util

#endif  // NV_UTIL_STRINGS_H
