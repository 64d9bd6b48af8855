#include <gtest/gtest.h>

#include "vfs/filesystem.h"
#include "vfs/passwd.h"
#include "vfs/path.h"

namespace nv::vfs {
namespace {

const os::Credentials kRoot = os::Credentials::root();
const os::Credentials kAlice = os::Credentials::user(1000, 1000);

TEST(Path, Normalization) {
  EXPECT_EQ(normalize_path("/etc//passwd/."), "/etc/passwd");
  EXPECT_EQ(normalize_path("/a/b/../c"), "/a/c");
  EXPECT_EQ(normalize_path("///"), "/");
  EXPECT_EQ(normalize_path("/../.."), "/");
}

TEST(Path, ParentAndBasename) {
  EXPECT_EQ(parent_path("/etc/passwd"), "/etc");
  EXPECT_EQ(parent_path("/etc"), "/");
  EXPECT_EQ(parent_path("/"), "/");
  EXPECT_EQ(basename("/etc/passwd"), "passwd");
  EXPECT_EQ(basename("/"), "");
}

// Odd paths and what each function makes of them. normalize_path,
// parent_path, basename and lookup resolve "." and ".." alike, and lookup
// reaches the node at the normalized path or fails as it would.
struct OddPath {
  const char* path;
  const char* normalized;
  const char* parent;
  const char* base;
  os::Errno lookup_error;  // kOk: lookup finds the node at `normalized`
};

constexpr OddPath kOddPaths[] = {
    {"", "/", "/", "", os::Errno::kOk},
    {"//", "/", "/", "", os::Errno::kOk},
    {"a/b", "/a/b", "/a", "b", os::Errno::kOk},
    {"/a/./b", "/a/b", "/a", "b", os::Errno::kOk},
    {"/a/../b", "/b", "/", "b", os::Errno::kOk},
    {"/a/b/..", "/a", "/", "a", os::Errno::kOk},
    {"/../..", "/", "/", "", os::Errno::kOk},
    {"/a//b/", "/a/b", "/a", "b", os::Errno::kOk},
    {"/a..b", "/a..b", "/", "a..b", os::Errno::kOk},
    {"/.a", "/.a", "/", ".a", os::Errno::kOk},
    {"/b/..", "/", "/", "", os::Errno::kOk},
    {"/nope/..", "/", "/", "", os::Errno::kOk},
    {"/a/b/../../b", "/b", "/", "b", os::Errno::kOk},
    {"/b/x", "/b/x", "/b", "x", os::Errno::kENOTDIR},
    {"/a/x", "/a/x", "/a", "x", os::Errno::kENOENT},
};

TEST(Path, OddPathsNormalizeSplitAndResolveAlike) {
  FileSystem fs;
  ASSERT_TRUE(fs.mkdir_p("/a/b", kRoot));
  ASSERT_TRUE(fs.write_file("/b", "file b", kRoot));
  ASSERT_TRUE(fs.write_file("/a..b", "x", kRoot));
  ASSERT_TRUE(fs.write_file("/.a", "y", kRoot));
  for (const OddPath& odd : kOddPaths) {
    SCOPED_TRACE(std::string("path \"") + odd.path + "\"");
    EXPECT_EQ(normalize_path(odd.path), odd.normalized);
    EXPECT_EQ(is_normalized(odd.path), std::string_view(odd.path) == odd.normalized);
    EXPECT_TRUE(is_normalized(odd.normalized));
    EXPECT_EQ(parent_path(odd.path), odd.parent);
    EXPECT_EQ(basename(odd.path), odd.base);
    const auto found = fs.lookup(odd.path);
    if (odd.lookup_error == os::Errno::kOk) {
      ASSERT_TRUE(found.has_value());
      EXPECT_EQ((*found)->ino(), fs.lookup(odd.normalized).value()->ino());
    } else {
      ASSERT_FALSE(found.has_value());
      EXPECT_EQ(found.error(), odd.lookup_error);
    }
  }
}

TEST(Path, PopComponentSkipsEmptyAndDotComponents) {
  std::string_view rest = "//etc/./passwd/";
  EXPECT_EQ(pop_component(rest), "etc");
  EXPECT_EQ(pop_component(rest), "passwd");
  EXPECT_EQ(pop_component(rest), "");
  EXPECT_TRUE(rest.empty());
  EXPECT_TRUE(has_dotdot("/a/../b"));
  EXPECT_TRUE(has_dotdot(".."));
  EXPECT_FALSE(has_dotdot("/a..b/..c/.../."));
}

TEST(Path, VariantPath) {
  EXPECT_EQ(variant_path("/etc/passwd", 0), "/etc/passwd-0");
  EXPECT_EQ(variant_path("/etc//passwd", 1), "/etc/passwd-1");
}

TEST(FileSystem, MkdirAndWriteRead) {
  FileSystem fs;
  ASSERT_TRUE(fs.mkdir_p("/a/b/c", kRoot));
  ASSERT_TRUE(fs.write_file("/a/b/c/f.txt", "data", kRoot));
  EXPECT_EQ(fs.read_file("/a/b/c/f.txt", kRoot).value(), "data");
  EXPECT_TRUE(fs.exists("/a/b"));
  EXPECT_FALSE(fs.exists("/a/z"));
}

TEST(FileSystem, MkdirPMakesEachMissingDirectoryAsMkdirWould) {
  FileSystem fs;
  ASSERT_TRUE(fs.mkdir_p("/srv/a", kRoot));
  EXPECT_TRUE(fs.mkdir_p("/srv/a", kAlice)) << "existing directories need no access";
  auto denied = fs.mkdir_p("/srv/a/b", kAlice);
  ASSERT_FALSE(denied.has_value());
  EXPECT_EQ(denied.error(), os::Errno::kEACCES);

  ASSERT_TRUE(fs.chown("/srv/a", 1000, 1000, kRoot));
  ASSERT_TRUE(fs.mkdir_p("/srv/a/../a/d/e", kAlice));
  const Stat made = fs.stat("/srv/a/d/e").value();
  EXPECT_TRUE(made.is_dir);
  EXPECT_EQ(made.uid, 1000u);
  // A directory made without write access stops the walk below it.
  auto read_only = fs.mkdir_p("/srv/a/ro/z", kAlice, 0555);
  ASSERT_FALSE(read_only.has_value());
  EXPECT_EQ(read_only.error(), os::Errno::kEACCES);
  EXPECT_TRUE(fs.exists("/srv/a/ro"));

  ASSERT_TRUE(fs.write_file("/srv/f", "x", kRoot));
  for (const std::string_view path : {"/srv/f", "/srv/f/g"}) {
    auto not_dir = fs.mkdir_p(path, kRoot);
    ASSERT_FALSE(not_dir.has_value()) << path;
    EXPECT_EQ(not_dir.error(), os::Errno::kENOTDIR) << path;
  }
  EXPECT_TRUE(fs.mkdir_p("/", kRoot));
}

TEST(FileSystem, OpenMissingFileFails) {
  FileSystem fs;
  auto r = fs.open("/nope", os::OpenFlags::kRead, kRoot);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error(), os::Errno::kENOENT);
}

TEST(FileSystem, CreateRequiresParentWriteAccess) {
  FileSystem fs;
  ASSERT_TRUE(fs.mkdir_p("/restricted", kRoot));
  ASSERT_TRUE(fs.chmod("/restricted", 0755, kRoot));
  auto r = fs.open("/restricted/x", os::OpenFlags::kWrite | os::OpenFlags::kCreate, kAlice);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error(), os::Errno::kEACCES);
}

TEST(FileSystem, PermissionBitsEnforced) {
  FileSystem fs;
  ASSERT_TRUE(fs.write_file("/rootonly", "secret", kRoot, 0600));
  auto denied = fs.read_file("/rootonly", kAlice);
  ASSERT_FALSE(denied.has_value());
  EXPECT_EQ(denied.error(), os::Errno::kEACCES);
  EXPECT_TRUE(fs.read_file("/rootonly", kRoot).has_value());
}

TEST(FileSystem, GroupPermissionsApply) {
  FileSystem fs;
  ASSERT_TRUE(fs.write_file("/shared", "g", kRoot, 0640));
  ASSERT_TRUE(fs.chown("/shared", 0, 1000, kRoot));
  EXPECT_TRUE(fs.read_file("/shared", kAlice).has_value());  // alice's gid 1000
  const os::Credentials bob = os::Credentials::user(1001, 50);
  EXPECT_FALSE(fs.read_file("/shared", bob).has_value());
}

TEST(FileSystem, SupplementaryGroupsChecked) {
  FileSystem fs;
  ASSERT_TRUE(fs.write_file("/grp", "x", kRoot, 0040));
  os::Credentials carol = os::Credentials::user(1002, 77);
  carol.groups = {200, 300};
  ASSERT_TRUE(fs.chown("/grp", 0, 300, kRoot));
  EXPECT_TRUE(fs.read_file("/grp", carol).has_value());
}

TEST(FileSystem, TruncateAndAppend) {
  FileSystem fs;
  ASSERT_TRUE(fs.write_file("/f", "0123456789", kRoot));
  auto f = fs.open("/f", os::OpenFlags::kWrite | os::OpenFlags::kTruncate, kRoot);
  ASSERT_TRUE(f.has_value());
  ASSERT_TRUE((*f)->write("ab").has_value());
  EXPECT_EQ(fs.read_file("/f", kRoot).value(), "ab");

  auto a = fs.open("/f", os::OpenFlags::kWrite | os::OpenFlags::kAppend, kRoot);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE((*a)->write("cd").has_value());
  EXPECT_EQ(fs.read_file("/f", kRoot).value(), "abcd");
}

TEST(FileSystem, ReadAdvancesCursor) {
  FileSystem fs;
  ASSERT_TRUE(fs.write_file("/f", "hello", kRoot));
  auto f = fs.open("/f", os::OpenFlags::kRead, kRoot);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ((*f)->read(2).value(), "he");
  EXPECT_EQ((*f)->read(10).value(), "llo");
  EXPECT_EQ((*f)->read(10).value(), "");  // EOF
  ASSERT_TRUE((*f)->seek(1).has_value());
  EXPECT_EQ((*f)->read(2).value(), "el");
}

TEST(FileSystem, WriteOnReadOnlyFdFails) {
  FileSystem fs;
  ASSERT_TRUE(fs.write_file("/f", "x", kRoot));
  auto f = fs.open("/f", os::OpenFlags::kRead, kRoot);
  ASSERT_TRUE(f.has_value());
  auto w = (*f)->write("y");
  ASSERT_FALSE(w.has_value());
  EXPECT_EQ(w.error(), os::Errno::kEBADF);
}

TEST(FileSystem, UnlinkAndRename) {
  FileSystem fs;
  ASSERT_TRUE(fs.write_file("/f", "x", kRoot));
  ASSERT_TRUE(fs.rename("/f", "/g", kRoot));
  EXPECT_FALSE(fs.exists("/f"));
  EXPECT_TRUE(fs.exists("/g"));
  ASSERT_TRUE(fs.unlink("/g", kRoot));
  EXPECT_FALSE(fs.exists("/g"));
  auto u = fs.unlink("/g", kRoot);
  ASSERT_FALSE(u.has_value());
  EXPECT_EQ(u.error(), os::Errno::kENOENT);
}

TEST(FileSystem, StatReportsMetadata) {
  FileSystem fs;
  ASSERT_TRUE(fs.write_file("/f", "12345", kRoot, 0640));
  const auto st = fs.stat("/f");
  ASSERT_TRUE(st.has_value());
  EXPECT_FALSE(st->is_dir);
  EXPECT_EQ(st->size, 5u);
  EXPECT_EQ(st->mode, 0640);
  EXPECT_EQ(st->uid, 0u);
}

TEST(FileSystem, ListDirSorted) {
  FileSystem fs;
  ASSERT_TRUE(fs.mkdir_p("/d", kRoot));
  ASSERT_TRUE(fs.write_file("/d/b", "", kRoot));
  ASSERT_TRUE(fs.write_file("/d/a", "", kRoot));
  const auto names = fs.list_dir("/d");
  ASSERT_TRUE(names.has_value());
  EXPECT_EQ(*names, (std::vector<std::string>{"a", "b"}));
}

TEST(FileSystem, ChmodRequiresOwnershipOrRoot) {
  FileSystem fs;
  ASSERT_TRUE(fs.write_file("/f", "", kRoot, 0644));
  auto denied = fs.chmod("/f", 0600, kAlice);
  ASSERT_FALSE(denied.has_value());
  EXPECT_EQ(denied.error(), os::Errno::kEPERM);
  ASSERT_TRUE(fs.chown("/f", 1000, 1000, kRoot));
  EXPECT_TRUE(fs.chmod("/f", 0600, kAlice));
}

std::uint64_t version_of(const FileSystem& fs, std::string_view path) {
  return fs.stat(path).value().version;
}

TEST(FileSystem, IdenticalRewriteChangesNothing) {
  FileSystem fs;
  ASSERT_TRUE(fs.write_file("/f", "same", kRoot, 0640));
  const Stat before = fs.stat("/f").value();
  ASSERT_TRUE(fs.write_file("/f", "same", kRoot, 0600));
  const Stat after = fs.stat("/f").value();
  EXPECT_EQ(after.ino, before.ino);
  EXPECT_EQ(after.version, before.version);
  EXPECT_EQ(after.mode, 0640);  // write_file never changes an existing file's mode
  EXPECT_EQ(fs.read_file("/f", kRoot).value(), "same");
}

TEST(FileSystem, IdenticalRewriteKeepsThePermissionChecks) {
  FileSystem fs;
  ASSERT_TRUE(fs.write_file("/rootonly", "x", kRoot, 0644));
  auto denied = fs.write_file("/rootonly", "x", kAlice);
  ASSERT_FALSE(denied.has_value());
  EXPECT_EQ(denied.error(), os::Errno::kEACCES);
  ASSERT_TRUE(fs.mkdir_p("/d", kRoot));
  auto is_dir = fs.write_file("/d", "", kRoot);
  ASSERT_FALSE(is_dir.has_value());
  EXPECT_EQ(is_dir.error(), os::Errno::kEISDIR);
}

TEST(FileSystem, EveryContentModeOrOwnerChangeBumpsTheVersion) {
  FileSystem fs;
  ASSERT_TRUE(fs.write_file("/f", "one", kRoot));
  std::uint64_t version = version_of(fs, "/f");
  const auto bumped = [&] {
    const std::uint64_t now = version_of(fs, "/f");
    const bool moved = now > version;
    version = now;
    return moved;
  };

  ASSERT_TRUE(fs.write_file("/f", "shorter", kRoot));
  EXPECT_TRUE(bumped()) << "write_file of new content";
  EXPECT_EQ(fs.read_file("/f", kRoot).value(), "shorter");
  ASSERT_TRUE(fs.write_file("/f", "sh", kRoot));
  EXPECT_TRUE(bumped()) << "write_file of a prefix";
  EXPECT_EQ(fs.read_file("/f", kRoot).value(), "sh");
  ASSERT_TRUE(fs.chmod("/f", 0600, kRoot));
  EXPECT_TRUE(bumped()) << "chmod";
  ASSERT_TRUE(fs.chown("/f", 1000, 1000, kRoot));
  EXPECT_TRUE(bumped()) << "chown";

  auto file = fs.open("/f", os::OpenFlags::kWrite, kRoot);
  ASSERT_TRUE(file.has_value());
  EXPECT_FALSE(bumped()) << "open without truncation";
  ASSERT_TRUE((*file)->write("x").has_value());
  EXPECT_TRUE(bumped()) << "a write through an open file";
  ASSERT_TRUE(fs.open("/f", os::OpenFlags::kWrite | os::OpenFlags::kTruncate, kRoot));
  EXPECT_TRUE(bumped()) << "truncation in open";
  EXPECT_EQ(fs.read_file("/f", kRoot).value(), "");

  auto reader = fs.open("/f", os::OpenFlags::kRead, kRoot);
  ASSERT_TRUE(reader.has_value());
  ASSERT_TRUE((*reader)->read(10).has_value());
  EXPECT_FALSE(bumped()) << "a read";
}

TEST(FileSystem, WritePastTheSizeCapFailsAndChangesNothing) {
  FileSystem fs;
  ASSERT_TRUE(fs.write_file("/f", "keep", kRoot));
  const std::uint64_t version = version_of(fs, "/f");
  auto file = fs.open("/f", os::OpenFlags::kWrite, kRoot);
  ASSERT_TRUE(file.has_value());
  // Ending one byte past the cap, and at offsets where offset + size would
  // wrap around 64 bits.
  for (const std::uint64_t offset :
       {kMaxFileSize, std::uint64_t{1} << 30, ~std::uint64_t{0}, ~std::uint64_t{0} - 1}) {
    ASSERT_TRUE((*file)->seek(offset).has_value());
    auto written = (*file)->write("xy");
    ASSERT_FALSE(written.has_value()) << offset;
    EXPECT_EQ(written.error(), os::Errno::kEFBIG);
  }
  EXPECT_EQ(fs.read_file("/f", kRoot).value(), "keep");
  EXPECT_EQ(version_of(fs, "/f"), version);
  EXPECT_EQ(os::errno_name(os::Errno::kEFBIG), "EFBIG");

  // A write that ends exactly at the cap is allowed.
  ASSERT_TRUE((*file)->seek(kMaxFileSize - 2).has_value());
  ASSERT_TRUE((*file)->write("xy").has_value());
  EXPECT_EQ(fs.stat("/f").value().size, kMaxFileSize);

  auto too_big = fs.write_file("/g", std::string(kMaxFileSize + 1, 'z'), kRoot);
  ASSERT_FALSE(too_big.has_value());
  EXPECT_EQ(too_big.error(), os::Errno::kEFBIG);
  EXPECT_EQ(fs.stat("/g").value().size, 0u);
}

TEST(Passwd, ParseAndFormatRoundTrip) {
  const std::string content =
      "root:x:0:0:root:/root:/bin/sh\n"
      "# comment line\n"
      "www:x:33:33:www data:/var/www:/usr/sbin/nologin\n"
      "broken-line-without-fields\n";
  const auto entries = parse_passwd(content);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "root");
  EXPECT_EQ(entries[1].uid, 33u);
  EXPECT_EQ(entries[1].gecos, "www data");
  const auto round = parse_passwd(format_passwd(entries));
  EXPECT_EQ(round, entries);
}

TEST(Passwd, FindHelpers) {
  const std::string_view content = "a:x:1:1:::\nb:x:2:2:::\n";
  EXPECT_EQ(find_user(content, "b")->uid, 2u);
  EXPECT_FALSE(find_user(content, "c").has_value());
  EXPECT_EQ(find_uid(content, 1)->name, "a");
  // glibc's rule: malformed lines are skipped, and the first match wins.
  const std::string_view odd = "b:x:one:2:::\nb:x:3:3:::\nb:x:4:4:::\n";
  EXPECT_EQ(find_user(odd, "b")->uid, 3u);
  EXPECT_EQ(find_group("g:x:bad:\ng:x:7:a,b\ng:x:8:\n", "g"),
            (GroupEntry{"g", 7, {"a", "b"}}));
}

TEST(Passwd, UidOrGidPastUint32MaxSkipsTheLine) {
  // Read modulo 2^32 these ids would be 0: root's.
  const std::string content =
      "mallory:x:4294967296:4294967296:M:/home/m:/bin/sh\n"
      "eve:x:1000:4294967296:E:/home/e:/bin/sh\n"
      "max:x:4294967295:4294967295:X:/home/x:/bin/sh\n";
  const auto entries = parse_passwd(content);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "max");
  EXPECT_EQ(entries[0].uid, 4294967295u);
  EXPECT_FALSE(find_user(content, "mallory").has_value());
  EXPECT_FALSE(find_uid(content, 0).has_value());
}

TEST(Passwd, GroupGidPastUint32MaxSkipsTheLine) {
  const std::string content = "wheel:x:4294967296:mallory\nstaff:x:0x100000000:\nok:x:1:\n";
  const auto groups = parse_group(content);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].name, "ok");
  EXPECT_FALSE(find_group(content, "wheel").has_value());
}

TEST(Passwd, GroupParseAndMembers) {
  const auto groups = parse_group("wheel:x:10:alice,bob\nempty:x:11:\n");
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].members, (std::vector<std::string>{"alice", "bob"}));
  EXPECT_TRUE(groups[1].members.empty());
}

TEST(Passwd, DiversifyRewritesOnlyIds) {
  const std::string content = "root:x:0:0:root:/root:/bin/sh\nwww:x:33:33:w:/var/www:/bin/f\n";
  const auto mask = [](os::uid_t u) { return u ^ 0x7FFFFFFFu; };
  const std::string diversified = diversify_passwd(content, mask, mask);
  const auto entries = parse_passwd(diversified);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].uid, 0x7FFFFFFFu);
  EXPECT_EQ(entries[1].uid, 33u ^ 0x7FFFFFFFu);
  EXPECT_EQ(entries[0].name, "root");
  EXPECT_EQ(entries[0].shell, "/bin/sh");
}

TEST(Passwd, DiversifyGroupRewritesGid) {
  const auto mask = [](os::gid_t g) { return g ^ 0x3FFFFFFFu; };
  const auto groups = parse_group(diversify_group("www:x:33:alice\n", mask));
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].gid, 33u ^ 0x3FFFFFFFu);
  EXPECT_EQ(groups[0].members, (std::vector<std::string>{"alice"}));
}

}  // namespace
}  // namespace nv::vfs
