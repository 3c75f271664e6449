#include "util/file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>

namespace storsubsim::util {

int publish_file(const std::string& path, std::string_view bytes) {
  static std::atomic<unsigned long> next_temp{0};
  std::string temp(path);
  temp.append(".tmp.").append(std::to_string(::getpid())).append(".");
  temp.append(std::to_string(next_temp.fetch_add(1)));

  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) return errno;
  int err = 0;
  for (std::size_t done = 0; err == 0 && done < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n >= 0) {
      done += static_cast<std::size_t>(n);
    } else if (errno != EINTR) {
      err = errno;
    }
  }
  if (err == 0 && ::fsync(fd) != 0) err = errno;
  if (::close(fd) != 0 && err == 0) err = errno;
  if (err == 0 && ::rename(temp.c_str(), path.c_str()) != 0) err = errno;
  if (err != 0) {
    ::unlink(temp.c_str());
    return err;
  }

  // Flush the rename itself: the directory entry now names the new inode.
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return errno;
  err = ::fsync(dir_fd) == 0 ? 0 : errno;
  ::close(dir_fd);
  return err;
}

}  // namespace storsubsim::util
