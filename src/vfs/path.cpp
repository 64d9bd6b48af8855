#include "vfs/path.h"

#include <algorithm>

namespace nv::vfs {

std::string_view pop_component(std::string_view& rest) noexcept {
  while (!rest.empty()) {
    const std::size_t end = std::min(rest.find('/'), rest.size());
    const std::string_view part = rest.substr(0, end);
    rest.remove_prefix(std::min(end + 1, rest.size()));
    if (!part.empty() && part != ".") return part;
  }
  return {};
}

bool has_dotdot(std::string_view path) noexcept {
  for (std::string_view part = pop_component(path); !part.empty(); part = pop_component(path)) {
    if (part == "..") return true;
  }
  return false;
}

bool is_normalized(std::string_view path) noexcept {
  if (path == "/") return true;
  if (path.empty() || path.front() != '/') return false;
  path.remove_prefix(1);
  for (;;) {
    const std::size_t end = std::min(path.find('/'), path.size());
    const std::string_view part = path.substr(0, end);
    if (part.empty() || part == "." || part == "..") return false;
    if (end == path.size()) return true;
    path.remove_prefix(end + 1);
  }
}

std::string normalize_path(std::string_view path) {
  std::string out;
  out.reserve(path.size() + 1);  // never longer than the input and a leading "/"
  for (std::string_view part = pop_component(path); !part.empty(); part = pop_component(path)) {
    if (part == "..") {
      out.resize(std::min(out.rfind('/'), out.size()));  // "/a/b" -> "/a"; "/a" -> ""
      continue;
    }
    out += '/';
    out += part;
  }
  if (out.empty()) out = "/";
  return out;
}

std::string parent_path(std::string_view path) {
  std::string out = normalize_path(path);
  out.resize(std::max<std::size_t>(out.rfind('/'), 1));  // keep the root's "/"
  return out;
}

std::string basename(std::string_view path) {
  const std::string normalized = normalize_path(path);
  return normalized.substr(normalized.rfind('/') + 1);
}

std::string variant_path(std::string_view path, unsigned variant_index) {
  return normalize_path(path) + "-" + std::to_string(variant_index);
}

}  // namespace nv::vfs
