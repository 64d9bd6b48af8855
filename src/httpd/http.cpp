#include "httpd/http.h"

#include "util/strings.h"

namespace nv::httpd {

std::string HttpRequest::header(std::string_view name) const {
  const auto it = headers.find(util::to_lower(name));
  return it == headers.end() ? std::string{} : it->second;
}

std::optional<HttpRequest> parse_request(std::string_view head) {
  const auto lines = util::split(head, '\n');
  if (lines.empty()) return std::nullopt;
  const auto first = util::split_ws(util::trim(lines[0]));
  if (first.size() < 2) return std::nullopt;
  HttpRequest request;
  request.method = first[0];
  request.path = first[1];
  request.version = first.size() > 2 ? first[2] : "HTTP/1.0";
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = util::trim(lines[i]);
    if (line.empty()) break;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    request.headers[util::to_lower(util::trim(line.substr(0, colon)))] =
        std::string(util::trim(line.substr(colon + 1)));
  }
  return request;
}

std::string_view status_text(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 500: return "Internal Server Error";
    default: return "Unknown";
  }
}

std::string format_response(int status, std::string_view body, std::string_view content_type) {
  std::string out = util::format("HTTP/1.0 %d %s\r\n", status,
                                 std::string(status_text(status)).c_str());
  out += util::format("Content-Type: %s\r\n", std::string(content_type).c_str());
  out += util::format("Content-Length: %zu\r\n", body.size());
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

std::string format_request(std::string_view method, std::string_view path,
                           const std::map<std::string, std::string>& headers) {
  std::string out;
  out += method;
  out += " ";
  out += path;
  out += " HTTP/1.0\r\n";
  for (const auto& [name, value] : headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "\r\n";
  return out;
}

HttpResponse parse_response(std::string_view raw) {
  HttpResponse response;
  const std::size_t head_end = raw.find("\r\n\r\n");
  const std::string_view head = head_end == std::string_view::npos ? raw : raw.substr(0, head_end);
  const auto lines = util::split(head, '\n');
  if (lines.empty()) return response;
  const auto first = util::split_ws(util::trim(lines[0]));
  if (first.size() >= 2) {
    if (auto status = util::parse_i64(first[1])) response.status = static_cast<int>(*status);
  }
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = util::trim(lines[i]);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    response.headers[util::to_lower(util::trim(line.substr(0, colon)))] =
        std::string(util::trim(line.substr(colon + 1)));
  }
  if (head_end != std::string_view::npos) response.body = std::string(raw.substr(head_end + 4));
  return response;
}

}  // namespace nv::httpd
