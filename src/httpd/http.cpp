#include "httpd/http.h"

#include <limits>

#include "util/strings.h"

namespace nv::httpd {

std::string HttpRequest::header(std::string_view name) const {
  const auto it = headers.find(util::to_lower(name));
  return it == headers.end() ? std::string{} : it->second;
}

std::optional<HttpRequest> parse_request(std::string_view head) {
  util::SplitCursor lines(head, '\n');
  std::string_view first = lines.next();
  const std::string_view method = util::pop_token(first);
  const std::string_view path = util::pop_token(first);
  if (path.empty()) return std::nullopt;
  const std::string_view version = util::pop_token(first);
  HttpRequest request;
  request.method = method;
  request.path = path;
  request.version = version.empty() ? "HTTP/1.0" : version;
  while (!lines.done()) {
    const std::string_view line = util::trim(lines.next());
    if (line.empty()) break;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    request.headers[util::to_lower(util::trim(line.substr(0, colon)))] =
        util::trim(line.substr(colon + 1));
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
  std::string out;
  out.reserve(128 + content_type.size() + body.size());  // 128: the fixed text and two numbers
  out += "HTTP/1.0 ";
  out += std::to_string(status);
  out += ' ';
  out += status_text(status);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
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
  util::SplitCursor lines(head, '\n');
  std::string_view first = lines.next();
  (void)util::pop_token(first);  // the version
  const auto status = util::parse_i64(util::pop_token(first));
  if (status && *status >= std::numeric_limits<int>::min() &&
      *status <= std::numeric_limits<int>::max()) {
    response.status = static_cast<int>(*status);
  }
  while (!lines.done()) {
    const std::string_view line = util::trim(lines.next());
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    response.headers[util::to_lower(util::trim(line.substr(0, colon)))] =
        util::trim(line.substr(colon + 1));
  }
  if (head_end != std::string_view::npos) response.body = raw.substr(head_end + 4);
  return response;
}

}  // namespace nv::httpd
