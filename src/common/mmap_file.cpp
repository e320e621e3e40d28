#include "common/mmap_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>
#include <utility>

namespace a2a {

namespace {

/// The failing call's errno travels with the exception, so callers can tell
/// a resource shortage (EMFILE, ENOMEM, ...) from a missing file.
[[noreturn]] void throw_errno(int err, const char* what,
                              const std::string& path) {
  throw std::system_error(err, std::generic_category(),
                          std::string(what) + ": " + path);
}

}  // namespace

MmapFile::MmapFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw_errno(errno, "cannot open file for mmap", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw_errno(err, "cannot stat file for mmap", path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ > 0) {
    void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      const int err = errno;
      ::close(fd);
      throw_errno(err, "mmap failed for", path);
    }
    data_ = map;
  }
  // The mapping survives the descriptor.
  ::close(fd);
}

MmapFile::~MmapFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

}  // namespace a2a
