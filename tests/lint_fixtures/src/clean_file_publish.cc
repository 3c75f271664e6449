// Fixture: the approved file idiom inside src/ — reads through fopen "rb" or
// an ifstream, writes through util::publish_file — no findings. Mentions of
// std::ofstream or fopen(path, "w") in comments and string literals are not
// calls.
#include <cstdio>
#include <fstream>
#include <string>

#include "util/file.h"

namespace storsubsim::replicate {

bool save(const std::string& path, const std::string& bytes) {
  return util::publish_file(path, bytes) == 0;
}

std::string load(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[256];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  std::ifstream again(path, std::ios::binary);
  return out;
}

const char* describe() { return "never std::ofstream, never fopen(path, \"w\")"; }

}  // namespace storsubsim::replicate
