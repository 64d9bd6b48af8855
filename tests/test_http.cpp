// HTTP parsing/serialization and the httpd.conf format.
#include <gtest/gtest.h>

#include "httpd/config.h"
#include "httpd/http.h"

namespace nv::httpd {
namespace {

TEST(HttpRequestParse, WellFormedGet) {
  const auto request = parse_request(
      "GET /index.html HTTP/1.0\r\n"
      "Host: example.test\r\n"
      "User-Agent: WebBench/5.0\r\n"
      "\r\n");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->method, "GET");
  EXPECT_EQ(request->path, "/index.html");
  EXPECT_EQ(request->version, "HTTP/1.0");
  EXPECT_EQ(request->header("host"), "example.test");
  EXPECT_EQ(request->header("User-Agent"), "WebBench/5.0");  // case-insensitive
  EXPECT_EQ(request->header("absent"), "");
}

TEST(HttpRequestParse, MalformedInputsRejected) {
  EXPECT_FALSE(parse_request("").has_value());
  EXPECT_FALSE(parse_request("GARBAGE\r\n\r\n").has_value());
}

TEST(HttpRequestParse, HeadersStopAtBlankLine) {
  const auto request = parse_request(
      "GET / HTTP/1.0\r\n"
      "A: 1\r\n"
      "\r\n"
      "B: 2\r\n");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->header("a"), "1");
  EXPECT_EQ(request->header("b"), "");  // after the blank line: body, not header
}

TEST(HttpResponseFormat, StatusLineAndContentLength) {
  const std::string response = format_response(200, "hello", "text/plain");
  EXPECT_NE(response.find("HTTP/1.0 200 OK\r\n"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(response.find("\r\n\r\nhello"), std::string::npos);
  EXPECT_NE(format_response(404, "x").find("404 Not Found"), std::string::npos);
  EXPECT_NE(format_response(500, "x").find("500 Internal Server Error"), std::string::npos);
}

TEST(HttpRoundTrip, RequestThenResponse) {
  const std::string raw = format_request("GET", "/page", {{"User-Agent", "test"}});
  const auto parsed = parse_request(raw);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->path, "/page");
  EXPECT_EQ(parsed->header("user-agent"), "test");

  const auto response = parse_response(format_response(200, "body bytes"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "body bytes");
  EXPECT_EQ(response.headers.at("content-length"), "10");
}

TEST(HttpResponseParse, GarbageGivesStatusMinusOne) {
  EXPECT_EQ(parse_response("").status, -1);
  EXPECT_EQ(parse_response("not http").status, -1);
}

TEST(HttpResponseParse, StatusOutsideIntReadsAsMinusOne) {
  EXPECT_EQ(parse_response("HTTP/1.0 4294967496 OK\r\n\r\n").status, -1);  // was 200
  EXPECT_EQ(parse_response("HTTP/1.0 2147483648 OK\r\n\r\n").status, -1);
  EXPECT_EQ(parse_response("HTTP/1.0 -2147483649 OK\r\n\r\n").status, -1);
  EXPECT_EQ(parse_response("HTTP/1.0 2147483647 OK\r\n\r\n").status, 2147483647);
  EXPECT_EQ(parse_response("HTTP/1.0 -2147483648 OK\r\n\r\n").status, -2147483647 - 1);
}

TEST(ServerConfigParse, AllDirectives) {
  const auto config = ServerConfig::parse(R"(
# comment
Listen 9999
User webuser
Group webgroup
DocumentRoot /srv/www
ErrorLog /var/log/err.log
Protected /admin
LogUidInErrors on
UidOpsMode userspace
MaxRequests 42
HeaderBufferSize 128
)");
  EXPECT_EQ(config.listen_port, 9999);
  EXPECT_EQ(config.user, "webuser");
  EXPECT_EQ(config.group, "webgroup");
  EXPECT_EQ(config.document_root, "/srv/www");
  EXPECT_EQ(config.error_log, "/var/log/err.log");
  EXPECT_EQ(config.protected_prefix, "/admin");
  EXPECT_TRUE(config.log_uid_in_errors);
  EXPECT_EQ(config.uid_ops_mode, guest::UidOpsMode::kUserSpaceReversed);
  EXPECT_EQ(config.max_requests, 42u);
  EXPECT_EQ(config.header_buffer_size, 128u);
}

TEST(ServerConfigParse, DefaultsWhenEmpty) {
  const auto config = ServerConfig::parse("");
  EXPECT_EQ(config.listen_port, 8080);
  EXPECT_EQ(config.user, "www");
  EXPECT_FALSE(config.log_uid_in_errors);
  EXPECT_EQ(config.uid_ops_mode, guest::UidOpsMode::kSyscallChecked);
}

TEST(ServerConfigParse, SerializeRoundTrips) {
  ServerConfig config;
  config.listen_port = 8123;
  config.user = "alice";
  config.log_uid_in_errors = true;
  config.uid_ops_mode = guest::UidOpsMode::kPlain;
  config.max_requests = 7;
  const auto round = ServerConfig::parse(config.serialize());
  EXPECT_EQ(round.listen_port, config.listen_port);
  EXPECT_EQ(round.user, config.user);
  EXPECT_EQ(round.log_uid_in_errors, config.log_uid_in_errors);
  EXPECT_EQ(round.uid_ops_mode, config.uid_ops_mode);
  EXPECT_EQ(round.max_requests, config.max_requests);
}

TEST(ServerConfigParse, ValuesTheirFieldCannotHoldKeepTheDefault) {
  // Modulo the field's width these would read as port 80, a 512-byte buffer
  // and one request.
  const auto config = ServerConfig::parse(
      "Listen 65616\nHeaderBufferSize 4294967808\nMaxRequests 4294967297\n");
  EXPECT_EQ(config.listen_port, ServerConfig{}.listen_port);
  EXPECT_EQ(config.header_buffer_size, ServerConfig{}.header_buffer_size);
  EXPECT_EQ(config.max_requests, ServerConfig{}.max_requests);
  // The ignored line leaves the value an earlier line set.
  EXPECT_EQ(ServerConfig::parse("HeaderBufferSize 128\nHeaderBufferSize 4294967552\n")
                .header_buffer_size,
            128u);
  const auto widest = ServerConfig::parse("Listen 65535\nHeaderBufferSize 4294967295\n");
  EXPECT_EQ(widest.listen_port, 65535);
  EXPECT_EQ(widest.header_buffer_size, 4294967295u);
}

TEST(ServerConfigParse, UnknownDirectivesIgnored) {
  const auto config = ServerConfig::parse("Bogus directive\nListen 8081\n");
  EXPECT_EQ(config.listen_port, 8081);
}

}  // namespace
}  // namespace nv::httpd
