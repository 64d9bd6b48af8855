// The text parsers walk their input in place, through util::SplitCursor and
// util::pop_token. These tests hold them to what the vector-returning splits
// they were first written on gave:
//   - the cursor and the token pop return the fields and tokens of
//     reference_split() and reference_split_ws(), kept below as the
//     reference;
//   - each parser reads a table of odd texts as those splits read them: the
//     expected results are the ones the vector-based parsers returned;
//   - find_user, find_uid and find_group return what a linear scan of the
//     whole parse returns, over seeded generated files.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "httpd/config.h"
#include "httpd/http.h"
#include "util/rng.h"
#include "util/strings.h"
#include "vfs/passwd.h"

namespace nv {
namespace {

// --- the reference splits ----------------------------------------------------

/// Split on a single character; empty fields are preserved.
std::vector<std::string> reference_split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

/// Split on any whitespace run; empty fields are dropped.
std::vector<std::string> reference_split_ws(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])) != 0) ++i;
    std::size_t start = i;
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])) == 0) ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::vector<std::string> cursor_fields(std::string_view text, char sep) {
  std::vector<std::string> out;
  for (util::SplitCursor cursor(text, sep); !cursor.done();) out.emplace_back(cursor.next());
  return out;
}

std::vector<std::string> popped_tokens(std::string_view text) {
  std::vector<std::string> out;
  for (std::string_view t = util::pop_token(text); !t.empty(); t = util::pop_token(text)) {
    out.emplace_back(t);
  }
  return out;
}

void expect_walks_match(std::string_view text) {
  SCOPED_TRACE(::testing::PrintToString(std::string(text)));
  for (const char sep : {':', '\n', ','}) {
    EXPECT_EQ(cursor_fields(text, sep), reference_split(text, sep)) << "sep " << int{sep};
  }
  EXPECT_EQ(popped_tokens(text), reference_split_ws(text));
  // trim() drops from both ends what isspace() calls whitespace.
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])) != 0) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) --end;
  EXPECT_EQ(util::trim(text), text.substr(begin, end - begin));
}

TEST(ParserEquivalence, SplitCursorAndPopTokenMatchTheVectorSplits) {
  for (const char* text : {"", ":", "::", "a", "a:", ":a", "a::b", "a:b:c", "\n", "a\n", "\na",
                           "a\r\nb\r\n", "\n\n\n", ",,a,,", " ", " a ", "a b", "\t\v\f\r\n ",
                           "a\tb\vc\fd\re\nf", "  a\tb  c ", "a:b::c"}) {
    expect_walks_match(text);
  }
  // Every byte between two letters: each walk splits exactly where isspace() does.
  for (int c = 0; c < 256; ++c) {
    const char byte = static_cast<char>(c);
    expect_walks_match(std::string{'a', byte, 'b'});
  }
  util::Rng rng(22);
  constexpr std::string_view kAlphabet = "ab:,\n\r\t\v\f ";
  for (int i = 0; i < 4000; ++i) {
    std::string text(rng.below(13), ' ');
    for (char& c : text) c = kAlphabet[rng.below(kAlphabet.size())];
    expect_walks_match(text);
  }
}

// --- odd texts, read as the vector-based parsers read them --------------------

struct OddText {
  const char* text;
  const char* parsed;  // the parse, rendered as the test below renders it
};

constexpr OddText kOddPasswd[] = {
    {"",
     ""},
    {"a:x:1:2:g:/h:/s",
     "a:x:1:2:g:/h:/s\n"},
    {"a:x:1:2:g:/h:/s\r\nb:x:3:4:G:/H:/S\r\n",
     "a:x:1:2:g:/h:/s\r\nb:x:3:4:G:/H:/S\r\n"},
    {"\n\n\na:x:1:2:g:/h:/s\n\n",
     "a:x:1:2:g:/h:/s\n"},
    {"a::::::\n",
     ""},
    {"a:x:1:2::::\n",
     "a:x:1:2:::\n"},
    {"# c:x:1:2:g:/h:/s\n\n  \n#\n",
     ""},
    {"a:x:1:2:g:/h\n",
     ""},
    {"a:x:1:2:g:/h:/s:extra:more\n",
     "a:x:1:2:g:/h:/s\n"},
    {"a:x:0x21:0X1f:g:/h:/s\n",
     "a:x:33:31:g:/h:/s\n"},
    {"a:x: 7 :\t8\t:g:/h:/s\n",
     "a:x:7:8:g:/h:/s\n"},
    {"a:x:-1:2:g:/h:/s\n",
     ""},
    {"a:x:0x:1:g:/h:/s\n",
     ""},
    {":x:1:2:::\n",
     ":x:1:2:::\n"},
    {" a:x:1:2:g:/h:/s\n",
     " a:x:1:2:g:/h:/s\n"},
    {"a:x:1:2:g:/h:/s\nb:x:1:2:g:/h:/s\na:x:3:3:g:/h:/s\n",
     "a:x:1:2:g:/h:/s\nb:x:1:2:g:/h:/s\na:x:3:3:g:/h:/s\n"},
    {"a:x:1\n:2:g:/h:/s\n",
     ""},
    {"a:x:4294967295:4294967295:g:/h:/s\n",
     "a:x:4294967295:4294967295:g:/h:/s\n"},
};

constexpr OddText kOddGroup[] = {
    {"",
     ""},
    {"g:x:1:a,b",
     "g:x:1:a,b\n"},
    {"g:x:1:a,b\r\n",
     "g:x:1:a,b\r\n"},
    {"g:x:1:,,a,,b,\n",
     "g:x:1:a,b\n"},
    {"g:x:1\n",
     ""},
    {"g:x:1:\n",
     "g:x:1:\n"},
    {"g:x:1:a:b\n",
     "g:x:1:a\n"},
    {"# g:x:1:a\n\n",
     ""},
    {"g:x:0x10:a\n",
     "g:x:16:a\n"},
    {"g:x: 5 :a\n",
     "g:x:5:a\n"},
    {"g:x:one:a\n",
     ""},
    {"g::2:\nh:x:3: a , b \n",
     "g:x:2:\nh:x:3: a , b \n"},
    {"g:x:1:a\ng:x:2:b\n",
     "g:x:1:a\ng:x:2:b\n"},
};

constexpr OddText kOddConfig[] = {
    {"",
     ""},
    {"Listen 81",
     "Listen 81\n"},
    {"Listen 81\r\nUser bob\r\n",
     "Listen 81\nUser bob\n"},
    {"\n\n\nListen    82\n\n",
     "Listen 82\n"},
    {"# Listen 83\n   # User x\n\n",
     ""},
    {"LISTEN\t84\nuSeR\tcarol\n\tDocumentRoot\t/srv\t\n",
     "Listen 84\nUser carol\nDocumentRoot /srv\n"},
    {"Listen\nUser\n",
     ""},
    {"User dave extra tokens\n",
     "User dave\n"},
    {"Listen 0x50\nMaxRequests  9 \n",
     "Listen 80\nMaxRequests 9\n"},
    {"Listen eighty\n",
     ""},
    {"LogUidInErrors ON\nUidOpsMode PLAIN\n",
     "LogUidInErrors on\nUidOpsMode plain\n"},
    {"UidOpsMode bogus\nLogUidInErrors yes\n",
     ""},
    {"UidOpsMode UserSpace\nHeaderBufferSize 0\n",
     "UidOpsMode userspace\nHeaderBufferSize 0\n"},
    {"Listen\v85\fUser\verin\n",
     "Listen 85\n"},
    {"Listen 65535\nMaxRequests 4294967295\n",
     "Listen 65535\nMaxRequests 4294967295\n"},
};

constexpr OddText kOddRequests[] = {
    {"",
     "<none>"},
    {"GET",
     "<none>"},
    {"GET /",
     "GET|/|HTTP/1.0"},
    {"GET / HTTP/1.1\r\nHost: a\r\n\r\n",
     "GET|/|HTTP/1.1|host=a"},
    {"  GET\t/x   HTTP/1.0  extra\r\n",
     "GET|/x|HTTP/1.0"},
    {"GET / HTTP/1.0\r\nNoColonHere\r\nX-A: 1\r\n\r\n",
     "GET|/|HTTP/1.0|x-a=1"},
    {"GET / HTTP/1.0\r\nX-A: 1\r\n\r\nX-B: 2\r\n",
     "GET|/|HTTP/1.0|x-a=1"},
    {"GET / HTTP/1.0\nUser-Agent:   ua  \nuser-agent: second\n",
     "GET|/|HTTP/1.0|user-agent=second"},
    {"GET / HTTP/1.0\r\n: empty-name\r\nX-C:\r\n",
     "GET|/|HTTP/1.0|=empty-name|x-c="},
    {"\r\nGET / HTTP/1.0\r\n",
     "<none>"},
    {"GET /a:b HTTP/1.0\r\nHost: h:80\r\n",
     "GET|/a:b|HTTP/1.0|host=h:80"},
    {"GET /\tHTTP/1.0\r\nA:1\nB:2",
     "GET|/|HTTP/1.0|a=1|b=2"},
};

constexpr OddText kOddResponses[] = {
    {"",
     "-1|body="},
    {"HTTP/1.0",
     "-1|body="},
    {"HTTP/1.0 404 Not Found\r\n\r\nbody",
     "404|body=body"},
    {"HTTP/1.0 200 OK\r\nContent-Length: 4\r\nNoColon\r\n\r\nbody\r\n\r\nmore",
     "200|content-length=4|body=body\r\n\r\nmore"},
    {"HTTP/1.0 -5 Odd\r\n\r\n",
     "-5|body="},
    {"HTTP/1.0 0x1F4 X\r\n\r\n",
     "500|body="},
    {"HTTP/1.0 abc\r\n\r\n",
     "-1|body="},
    {"HTTP/1.0 200 OK\nA: 1\nB: 2",
     "200|a=1|b=2|body="},
    {"HTTP/1.0 200 OK\r\n\r\n",
     "200|body="},
    {"  HTTP/1.0   201  \r\nX:y\r\n\r\n",
     "201|x=y|body="},
    {"HTTP/1.0 +7 X\r\n\r\n",
     "7|body="},
    {"HTTP/1.0 2147483647 X\r\n\r\n",
     "2147483647|body="},
};

/// The lines of the serialized parse that differ from a default config's.
std::string config_changes(std::string_view text) {
  const std::string parsed = httpd::ServerConfig::parse(text).serialize();
  const std::string defaults = httpd::ServerConfig{}.serialize();
  const auto parsed_lines = reference_split(parsed, '\n');
  const auto default_lines = reference_split(defaults, '\n');
  std::string out;
  for (std::size_t i = 0; i < parsed_lines.size() && i < default_lines.size(); ++i) {
    if (parsed_lines[i] != default_lines[i]) out += parsed_lines[i] + "\n";
  }
  return out;
}

std::string render_request(std::string_view head) {
  const auto request = httpd::parse_request(head);
  if (!request) return "<none>";
  std::string out = request->method + "|" + request->path + "|" + request->version;
  for (const auto& [name, value] : request->headers) out += "|" + name + "=" + value;
  return out;
}

std::string render_response(std::string_view raw) {
  const auto response = httpd::parse_response(raw);
  std::string out = std::to_string(response.status);
  for (const auto& [name, value] : response.headers) out += "|" + name + "=" + value;
  return out + "|body=" + response.body;
}

template <typename Render, std::size_t N>
void expect_table(const OddText (&table)[N], Render render) {
  for (const OddText& odd : table) {
    SCOPED_TRACE(::testing::PrintToString(std::string(odd.text)));
    EXPECT_EQ(render(odd.text), odd.parsed);
  }
}

TEST(ParserEquivalence, OddPasswdAndGroupTextParsesAsBefore) {
  expect_table(kOddPasswd,
               [](std::string_view text) { return vfs::format_passwd(vfs::parse_passwd(text)); });
  expect_table(kOddGroup,
               [](std::string_view text) { return vfs::format_group(vfs::parse_group(text)); });
}

TEST(ParserEquivalence, OddConfigTextParsesAsBefore) { expect_table(kOddConfig, config_changes); }

TEST(ParserEquivalence, OddHttpTextParsesAsBefore) {
  expect_table(kOddRequests, render_request);
  expect_table(kOddResponses, render_response);
}

// --- one-entry lookups against the whole parse ---------------------------------

constexpr std::string_view kNames[] = {"root", "www", "a", "us", "", " a"};
constexpr std::string_view kIds[] = {"0",          "33",         "1000", "0x21", " 7 ",
                                     "4294967295", "4294967296", "-1",   "x",    ""};
constexpr std::string_view kMembers[] = {"a,b", "", ",a,", " a ", "www"};

template <std::size_t N>
std::string_view draw(util::Rng& rng, const std::string_view (&pool)[N]) {
  return pool[rng.below(N)];
}

/// A passwd (or, with `group`, a group) file drawn from a few names and ids,
/// so that names repeat, mixed with malformed, comment, blank and CRLF lines.
std::string random_file(util::Rng& rng, bool group) {
  std::string text;
  const std::uint64_t lines = rng.below(12);
  for (std::uint64_t i = 0; i < lines; ++i) {
    std::string line(draw(rng, kNames));
    line += ":x:";
    line += draw(rng, kIds);
    switch (rng.below(6)) {
      case 0: break;  // too few fields
      case 1: line = "#" + line + ":1:::"; break;  // a comment
      case 2: line.clear(); break;  // a blank line
      default:
        if (group) {
          line += ":";
          line += draw(rng, kMembers);
        } else {
          line += ":";
          line += draw(rng, kIds);
          line += ":G:/home:/bin/sh";
        }
        if (rng.chance(0.2)) line += ":extra";  // too many fields
    }
    if (rng.chance(0.2)) line += "\r";
    text += line;
    if (i + 1 < lines || rng.chance(0.5)) text += "\n";
  }
  return text;
}

template <typename Entry, typename Key>
std::optional<Entry> scan(const std::vector<Entry>& entries, const Key& key) {
  const auto it = std::find_if(entries.begin(), entries.end(), [&key](const Entry& e) {
    if constexpr (std::is_same_v<Key, os::uid_t>) {
      return e.uid == key;
    } else {
      return e.name == key;
    }
  });
  if (it == entries.end()) return std::nullopt;
  return *it;
}

TEST(ParserEquivalence, FindUserAndFindGroupEqualALinearScan) {
  util::Rng rng(7);
  std::size_t found = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string passwd = random_file(rng, false);
    const std::string group = random_file(rng, true);
    SCOPED_TRACE(::testing::PrintToString(passwd) + " / " + ::testing::PrintToString(group));
    const auto users = vfs::parse_passwd(passwd);
    const auto groups = vfs::parse_group(group);
    for (const std::string_view name : {"root", "www", "a", "us", "", " a", "missing"}) {
      const auto user = vfs::find_user(passwd, name);
      EXPECT_EQ(user, scan(users, name));
      EXPECT_EQ(vfs::find_group(group, name), scan(groups, name));
      found += user.has_value() ? 1 : 0;
    }
    for (const os::uid_t uid : {0u, 33u, 1000u, 7u, 4294967295u, 5u}) {
      EXPECT_EQ(vfs::find_uid(passwd, uid), scan(users, uid));
    }
  }
  EXPECT_GT(found, 1000u) << "the generator should make files in which names are found";
}

}  // namespace
}  // namespace nv
