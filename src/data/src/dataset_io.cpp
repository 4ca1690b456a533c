#include "klinq/data/dataset_io.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "klinq/common/error.hpp"

namespace klinq::data {

std::string versioned_snapshot_filename(std::size_t qubit,
                                        std::uint64_t version) {
  return "qubit" + std::to_string(qubit) + "_v" + std::to_string(version) +
         ".snap";
}

namespace {

/// Consumes leading digits of `text` into `value`; false when there are
/// none (overflow is not a concern: callers bound the digit count).
bool parse_number(std::string_view& text, std::uint64_t& value) {
  std::size_t digits = 0;
  value = 0;
  while (digits < text.size() && text[digits] >= '0' && text[digits] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(text[digits] - '0');
    ++digits;
  }
  if (digits == 0 || digits > 19) return false;
  text.remove_prefix(digits);
  return true;
}

}  // namespace

bool parse_versioned_snapshot_filename(std::string_view filename,
                                       std::size_t& qubit,
                                       std::uint64_t& version) {
  constexpr std::string_view kPrefix = "qubit";
  constexpr std::string_view kSeparator = "_v";
  constexpr std::string_view kSuffix = ".snap";
  if (filename.substr(0, kPrefix.size()) != kPrefix) return false;
  filename.remove_prefix(kPrefix.size());
  std::uint64_t qubit_value = 0;
  if (!parse_number(filename, qubit_value)) return false;
  if (filename.substr(0, kSeparator.size()) != kSeparator) return false;
  filename.remove_prefix(kSeparator.size());
  if (!parse_number(filename, version)) return false;
  if (filename != kSuffix) return false;
  qubit = static_cast<std::size_t>(qubit_value);
  return true;
}

namespace {

#if defined(__unix__) || defined(__APPLE__)

/// Closes `fd` on scope exit unless released (after an explicit close whose
/// error we want to observe).
struct fd_guard {
  int fd;
  ~fd_guard() {
    if (fd >= 0) ::close(fd);
  }
  int release() {
    const int out = fd;
    fd = -1;
    return out;
  }
};

void fsync_path(const std::string& path, int open_flags) {
  const int fd = ::open(path.c_str(), open_flags);
  if (fd < 0)
    throw io_error("durable write: cannot open '" + path +
                   "' for fsync: " + std::strerror(errno));
  fd_guard guard{fd};
  if (::fsync(fd) != 0)
    throw io_error("durable write: fsync('" + path +
                   "') failed: " + std::strerror(errno));
}

std::string parent_directory(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

#endif  // __unix__ || __APPLE__

}  // namespace

void write_file_durable(const std::string& path, std::string_view bytes) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0)
    throw io_error("durable write: cannot create '" + path +
                   "': " + std::strerror(errno));
  fd_guard guard{fd};
  const char* cursor = bytes.data();
  std::size_t remaining = bytes.size();
  while (remaining > 0) {
    const ::ssize_t written = ::write(fd, cursor, remaining);
    if (written < 0) {
      if (errno == EINTR) continue;
      throw io_error("durable write: write('" + path +
                     "') failed: " + std::strerror(errno));
    }
    cursor += written;
    remaining -= static_cast<std::size_t>(written);
  }
  if (::fsync(fd) != 0)
    throw io_error("durable write: fsync('" + path +
                   "') failed: " + std::strerror(errno));
  if (::close(guard.release()) != 0)
    throw io_error("durable write: close('" + path +
                   "') failed: " + std::strerror(errno));
#else
  // No fsync available: fall back to a buffered write (best effort).
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw io_error("durable write: cannot write '" + path + "'");
#endif
}

void replace_file(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0)
    throw io_error("durable write: rename('" + from + "' -> '" + to +
                   "') failed: " + std::strerror(errno));
#if defined(__unix__) || defined(__APPLE__)
  // The rename is only durable once the directory entry itself is synced.
  fsync_path(parent_directory(to), O_RDONLY | O_DIRECTORY);
#endif
}

}  // namespace klinq::data
