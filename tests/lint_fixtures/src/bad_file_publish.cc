// Fixture: deliberately violates file-publish inside src/.
// Every file src/ creates must go through util::publish_file (temp, fsync,
// rename); writing the target in place leaves torn files behind a crash.
#include <fcntl.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace storsubsim::replicate {

void write_in_place(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);  // file-publish: in-place stream
  out << bytes;
}

bool rewrite(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");  // file-publish: truncating mode
  if (f == nullptr) return false;
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

void append_line(const char* path, const char* line) {
  std::FILE* f = std::fopen(path, "a");  // file-publish: append mode
  if (f != nullptr) {
    std::fputs(line, f);
    std::fclose(f);
  }
}

void patch(const char* path, const char* mode) {
  std::FILE* f = std::fopen(path, "r+b");  // file-publish: update mode
  std::FILE* g = std::fopen(path, mode);   // file-publish: mode the scan cannot see
  if (f != nullptr) std::fclose(f);
  if (g != nullptr) std::fclose(g);
}

int make(const char* path) {
  return ::creat(path, 0644);  // file-publish: creat
}

}  // namespace storsubsim::replicate
