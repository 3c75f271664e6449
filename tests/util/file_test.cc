// util::publish_file: the one way src/ creates a file. A publish replaces
// the target atomically, a reader that mapped the old file keeps reading the
// old bytes, a failed publish leaves the target and its directory exactly as
// they were, and a published file gets the permissions fopen would give it.
// store::MmapFile, the one whole-file reader, reads a pipe whole, and
// store::store_shape never opens one.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "store/mmap_file.h"
#include "store/shards.h"
#include "util/file.h"

namespace fs = std::filesystem;
namespace store = storsubsim::store;
namespace util = storsubsim::util;

namespace {

/// A fresh, empty, PID-unique directory removed again on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const char* name)
      : path_(::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }

  const std::string& path() const { return path_; }
  std::string file(const char* name) const { return path_ + "/" + name; }

  /// Every entry name in the directory (temp files would show up here).
  std::set<std::string> entries() const {
    std::set<std::string> names;
    for (const auto& e : fs::directory_iterator(path_)) {
      names.insert(e.path().filename().string());
    }
    return names;
  }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

mode_t mode_of(const std::string& path) {
  struct stat st{};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st.st_mode & 07777;
}

}  // namespace

TEST(PublishFile, CreatesThenReplacesTheTarget) {
  const ScratchDir dir("publish_replace");
  const std::string target = dir.file("artifact.bin");
  ASSERT_EQ(util::publish_file(target, "first generation"), 0);
  EXPECT_EQ(slurp(target), "first generation");
  ASSERT_EQ(util::publish_file(target, "second"), 0);
  EXPECT_EQ(slurp(target), "second");
  ASSERT_EQ(util::publish_file(target, ""), 0);
  EXPECT_EQ(slurp(target), "");
  EXPECT_EQ(dir.entries(), std::set<std::string>{"artifact.bin"}) << "no temp file left";
}

TEST(PublishFile, AMappingOpenedBeforePublishingKeepsTheOldBytes) {
  const ScratchDir dir("publish_mapping");
  const std::string target = dir.file("store.bin");
  const std::string old_bytes(1 << 16, 'o');
  ASSERT_EQ(util::publish_file(target, old_bytes), 0);

  store::MmapFile reader;
  ASSERT_TRUE(reader.open(target).ok());
  // Shorter than the mapping: an in-place truncation here would turn the
  // reader's next page fault into SIGBUS.
  ASSERT_EQ(util::publish_file(target, std::string(100, 'n')), 0);

  EXPECT_EQ(reader.view(), old_bytes);
  store::MmapFile fresh;
  ASSERT_TRUE(fresh.open(target).ok());
  EXPECT_EQ(fresh.view(), std::string(100, 'n'));
}

TEST(PublishFile, AMissingDirectoryFailsWithItsErrnoAndCreatesNothing) {
  const ScratchDir dir("publish_missing_dir");
  const std::string target = dir.file("absent/artifact.bin");
  EXPECT_EQ(util::publish_file(target, "bytes"), ENOENT);
  EXPECT_TRUE(dir.entries().empty());
}

TEST(PublishFile, ATargetThatIsADirectoryFailsAndIsLeftAsItWas) {
  const ScratchDir dir("publish_onto_dir");
  const std::string target = dir.file("occupied");
  fs::create_directories(target);
  ASSERT_EQ(util::publish_file(target + "/inside.bin", "kept"), 0);

  EXPECT_EQ(util::publish_file(target, "bytes"), EISDIR);
  EXPECT_TRUE(fs::is_directory(target));
  EXPECT_EQ(slurp(target + "/inside.bin"), "kept");
  EXPECT_EQ(dir.entries(), std::set<std::string>{"occupied"}) << "no temp file left";
}

TEST(PublishFile, AFailedPublishLeavesTheOldFileByteIdentical) {
  const ScratchDir dir("publish_failed_keeps_old");
  const std::string target = dir.file("artifact.bin");
  ASSERT_EQ(util::publish_file(target, "old generation"), 0);
  // The same name under a path component that is a file, not a directory.
  EXPECT_EQ(util::publish_file(target + "/child", "new"), ENOTDIR);
  EXPECT_EQ(slurp(target), "old generation");
  EXPECT_EQ(dir.entries(), std::set<std::string>{"artifact.bin"});
}

TEST(PublishFile, PermissionsMatchFopenUnderTheProcessUmask) {
  const ScratchDir dir("publish_mode");
  for (const mode_t mask : {mode_t{022}, mode_t{027}, mode_t{077}}) {
    const mode_t previous = ::umask(mask);
    const std::string by_fopen = dir.file("by_fopen");
    const std::string published = dir.file("published");
    std::FILE* f = std::fopen(by_fopen.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    ASSERT_EQ(util::publish_file(published, "x"), 0);
    EXPECT_EQ(mode_of(published), mode_of(by_fopen)) << "umask " << std::oct << mask;
    EXPECT_EQ(mode_of(published), 0666 & ~mask);
    std::remove(by_fopen.c_str());
    std::remove(published.c_str());
    ::umask(previous);
  }
}

// --- MmapFile over things that are not regular files --------------------------

TEST(MmapFile, ReadsAPipeWholeIntoItsBuffer) {
  // A pipe opened by path (what a shell's process substitution hands a
  // program) has st_size 0; the reader must still see every byte, across
  // many reads of the pipe.
  std::signal(SIGPIPE, SIG_IGN);  // a reader that quits early fails, not kills
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string payload;
  for (int i = 0; i < 40000; ++i) payload += "line " + std::to_string(i) + "\n";
  ASSERT_GT(payload.size(), 4u * 65536u);
  std::thread writer([&] {
    for (std::size_t done = 0; done < payload.size();) {
      const ssize_t n = ::write(fds[1], payload.data() + done, payload.size() - done);
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    ::close(fds[1]);
  });
  store::MmapFile file;
  const auto err = file.open("/dev/fd/" + std::to_string(fds[0]));
  ::close(fds[0]);
  writer.join();
  ASSERT_TRUE(err.ok()) << err.describe();
  EXPECT_EQ(file.view(), payload);
  const store::MmapFile moved = std::move(file);
  EXPECT_EQ(moved.view(), payload);
}

TEST(StoreShape, AFifoIsNoneWithoutBeingOpened) {
  // Opening a FIFO with no writer blocks, so a sniff that opened it would
  // hang here (and drain a real pipe's bytes before the text reader).
  ScratchDir dir("shape_fifo");
  const std::string fifo = dir.file("input.fifo");
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  auto shape = std::async(std::launch::async, [&] { return store::store_shape(fifo); });
  if (shape.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    ADD_FAILURE() << "store_shape opened the FIFO";
    // A writer that opens and closes gives the blocked reader EOF.
    const int fd = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
    if (fd >= 0) ::close(fd);
  }
  EXPECT_EQ(shape.get(), store::StoreShape::kNone);
}
