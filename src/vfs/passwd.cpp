#include "vfs/passwd.h"

#include <array>

#include "util/strings.h"

namespace nv::vfs {

namespace {

/// One well-formed passwd line, its text fields views of the line.
struct PasswdLine {
  std::string_view name;
  os::uid_t uid = 0;
  os::gid_t gid = 0;
  std::string_view gecos;
  std::string_view home;
  std::string_view shell;
};

/// One well-formed group line; `members` is its comma-separated field.
struct GroupLine {
  std::string_view name;
  os::gid_t gid = 0;
  std::string_view members;
};

/// Fills `fields` with the first fields of a line that is neither blank nor
/// a '#' comment; false when it is one, or has fewer fields than `fields`.
/// A field past the last one kept is ignored.
template <std::size_t N>
bool read_fields(std::string_view line, std::array<std::string_view, N>& fields) noexcept {
  if (line.empty() || line[0] == '#') return false;
  util::SplitCursor cursor(line, ':');
  for (std::string_view& field : fields) {
    if (cursor.done()) return false;
    field = cursor.next();
  }
  return true;
}

std::optional<PasswdLine> read_passwd_line(std::string_view line) noexcept {
  std::array<std::string_view, 7> fields;
  if (!read_fields(line, fields)) return std::nullopt;
  const auto uid = util::parse_uint<os::uid_t>(fields[2]);
  const auto gid = util::parse_uint<os::gid_t>(fields[3]);
  if (!uid || !gid) return std::nullopt;
  return PasswdLine{fields[0], *uid, *gid, fields[4], fields[5], fields[6]};
}

std::optional<GroupLine> read_group_line(std::string_view line) noexcept {
  std::array<std::string_view, 4> fields;
  if (!read_fields(line, fields)) return std::nullopt;
  const auto gid = util::parse_uint<os::gid_t>(fields[2]);
  if (!gid) return std::nullopt;
  return GroupLine{fields[0], *gid, fields[3]};
}

PasswdEntry to_entry(const PasswdLine& line) {
  return PasswdEntry{std::string(line.name), line.uid, line.gid, std::string(line.gecos),
                     std::string(line.home), std::string(line.shell)};
}

GroupEntry to_entry(const GroupLine& line) {
  GroupEntry entry{std::string(line.name), line.gid, {}};
  for (util::SplitCursor members(line.members, ','); !members.done();) {
    const std::string_view member = members.next();
    if (!member.empty()) entry.members.emplace_back(member);
  }
  return entry;
}

/// Every well-formed line of `content`, read by `read_line`, as entries.
template <typename Entry, typename ReadLine>
std::vector<Entry> parse_all(std::string_view content, ReadLine read_line) {
  std::vector<Entry> entries;
  for (util::SplitCursor lines(content, '\n'); !lines.done();) {
    if (const auto line = read_line(lines.next())) entries.push_back(to_entry(*line));
  }
  return entries;
}

/// The entry of the first well-formed line of `content` that `match`
/// accepts; nothing is built for the lines before it.
template <typename Entry, typename ReadLine, typename Match>
std::optional<Entry> find_first(std::string_view content, ReadLine read_line, const Match& match) {
  for (util::SplitCursor lines(content, '\n'); !lines.done();) {
    const auto line = read_line(lines.next());
    if (line && match(*line)) return to_entry(*line);
  }
  return std::nullopt;
}

}  // namespace

std::vector<PasswdEntry> parse_passwd(std::string_view content) {
  return parse_all<PasswdEntry>(content, read_passwd_line);
}

std::string format_passwd(const std::vector<PasswdEntry>& entries) {
  std::string out;
  for (const auto& e : entries) {
    out += e.name + ":x:" + std::to_string(e.uid) + ":" + std::to_string(e.gid) + ":" +
           e.gecos + ":" + e.home + ":" + e.shell + "\n";
  }
  return out;
}

std::vector<GroupEntry> parse_group(std::string_view content) {
  return parse_all<GroupEntry>(content, read_group_line);
}

std::string format_group(const std::vector<GroupEntry>& entries) {
  std::string out;
  for (const auto& e : entries) {
    out += e.name + ":x:" + std::to_string(e.gid) + ":" + util::join(e.members, ",") + "\n";
  }
  return out;
}

std::optional<PasswdEntry> find_user(std::string_view content, std::string_view name) {
  return find_first<PasswdEntry>(content, read_passwd_line,
                                 [name](const PasswdLine& line) { return line.name == name; });
}

std::optional<PasswdEntry> find_uid(std::string_view content, os::uid_t uid) {
  return find_first<PasswdEntry>(content, read_passwd_line,
                                 [uid](const PasswdLine& line) { return line.uid == uid; });
}

std::optional<GroupEntry> find_group(std::string_view content, std::string_view name) {
  return find_first<GroupEntry>(content, read_group_line,
                                [name](const GroupLine& line) { return line.name == name; });
}

std::string diversify_passwd(std::string_view content,
                             const std::function<os::uid_t(os::uid_t)>& uid_fn,
                             const std::function<os::gid_t(os::gid_t)>& gid_fn) {
  auto entries = parse_passwd(content);
  for (auto& e : entries) {
    e.uid = uid_fn(e.uid);
    e.gid = gid_fn(e.gid);
  }
  return format_passwd(entries);
}

std::string diversify_group(std::string_view content,
                            const std::function<os::gid_t(os::gid_t)>& gid_fn) {
  auto entries = parse_group(content);
  for (auto& e : entries) e.gid = gid_fn(e.gid);
  return format_group(entries);
}

}  // namespace nv::vfs
