#include "httpd/config.h"

#include "util/strings.h"

namespace nv::httpd {

using guest::UidOpsMode;

ServerConfig ServerConfig::parse(std::string_view text) {
  ServerConfig config;
  for (util::SplitCursor lines(text, '\n'); !lines.done();) {
    std::string_view rest = util::trim(lines.next());
    if (rest.empty() || rest[0] == '#') continue;
    const std::string_view key = util::pop_token(rest);
    const std::string_view value = util::pop_token(rest);
    if (value.empty()) continue;
    // A number its field cannot hold is ignored, and the field keeps its value.
    if (util::iequals(key, "listen")) {
      if (auto port = util::parse_uint<std::uint16_t>(value)) config.listen_port = *port;
    } else if (util::iequals(key, "user")) {
      config.user = value;
    } else if (util::iequals(key, "group")) {
      config.group = value;
    } else if (util::iequals(key, "documentroot")) {
      config.document_root = value;
    } else if (util::iequals(key, "errorlog")) {
      config.error_log = value;
    } else if (util::iequals(key, "protected")) {
      config.protected_prefix = value;
    } else if (util::iequals(key, "loguidinerrors")) {
      config.log_uid_in_errors = util::iequals(value, "on");
    } else if (util::iequals(key, "uidopsmode")) {
      if (util::iequals(value, "plain")) {
        config.uid_ops_mode = UidOpsMode::kPlain;
      } else if (util::iequals(value, "userspace")) {
        config.uid_ops_mode = UidOpsMode::kUserSpaceReversed;
      } else {
        config.uid_ops_mode = UidOpsMode::kSyscallChecked;
      }
    } else if (util::iequals(key, "maxrequests")) {
      if (auto n = util::parse_uint<std::uint32_t>(value)) config.max_requests = *n;
    } else if (util::iequals(key, "headerbuffersize")) {
      if (auto n = util::parse_uint<std::uint32_t>(value)) config.header_buffer_size = *n;
    }
  }
  return config;
}

std::string ServerConfig::serialize() const {
  std::string out;
  const auto line = [&out](std::string_view key, std::string_view value) {
    out += key;
    out += ' ';
    out += value;
    out += '\n';
  };
  line("Listen", std::to_string(listen_port));
  line("User", user);
  line("Group", group);
  line("DocumentRoot", document_root);
  line("ErrorLog", error_log);
  line("Protected", protected_prefix);
  line("LogUidInErrors", log_uid_in_errors ? "on" : "off");
  switch (uid_ops_mode) {
    case UidOpsMode::kPlain: line("UidOpsMode", "plain"); break;
    case UidOpsMode::kSyscallChecked: line("UidOpsMode", "syscall"); break;
    case UidOpsMode::kUserSpaceReversed: line("UidOpsMode", "userspace"); break;
  }
  line("MaxRequests", std::to_string(max_requests));
  line("HeaderBufferSize", std::to_string(header_buffer_size));
  return out;
}

}  // namespace nv::httpd
