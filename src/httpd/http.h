// Minimal HTTP/1.0 request/response handling for the mini web server.
#ifndef NV_HTTPD_HTTP_H
#define NV_HTTPD_HTTP_H

#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace nv::httpd {

struct HttpRequest {
  std::string method;
  std::string path;
  std::string version;
  std::map<std::string, std::string> headers;  // lower-cased names

  [[nodiscard]] std::string header(std::string_view name) const;
};

/// Parse the request head (start line + headers). Returns nullopt on
/// malformed input.
[[nodiscard]] std::optional<HttpRequest> parse_request(std::string_view head);

/// Serialize an HTTP/1.0 response with Content-Length and Connection: close.
[[nodiscard]] std::string format_response(int status, std::string_view body,
                                          std::string_view content_type = "text/plain");

[[nodiscard]] std::string_view status_text(int status) noexcept;

/// Build a request head (used by clients / workload generators).
[[nodiscard]] std::string format_request(std::string_view method, std::string_view path,
                                         const std::map<std::string, std::string>& headers = {});

/// Split a raw response into (status, body). Returns status -1 on garbage.
struct HttpResponse {
  int status = -1;
  std::map<std::string, std::string> headers;
  std::string body;
};
[[nodiscard]] HttpResponse parse_response(std::string_view raw);

}  // namespace nv::httpd

#endif  // NV_HTTPD_HTTP_H
