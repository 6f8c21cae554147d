#include "util/mmapio.hpp"

#include "util/fs.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define PILOT_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define PILOT_HAVE_MMAP 0
#endif

namespace util {

bool MappedFile::try_map(const std::filesystem::path& path) {
#if PILOT_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st{};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return false;
  }
  const auto len = static_cast<std::size_t>(st.st_size);
  if (len == 0) {
    // mmap(0) is EINVAL; an empty regular file is simply an empty view.
    ::close(fd);
    return true;
  }
  void* p = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (p == MAP_FAILED) return false;
#if defined(MADV_WILLNEED)
  ::madvise(p, len, MADV_WILLNEED);
#endif
  map_ = p;
  map_len_ = len;
  data_ = static_cast<const std::uint8_t*>(p);
  size_ = len;
  return true;
#else
  (void)path;
  return false;
#endif
}

MappedFile::MappedFile(const std::filesystem::path& path) {
  if (try_map(path)) return;
  // Portable fallback (also taken for FIFOs/devices): one read into an
  // owned buffer. Same bytes, same lifetime guarantees, no zero-copy.
  fallback_ = util::read_file(path);
  data_ = fallback_.data();
  size_ = fallback_.size();
}

MappedFile::~MappedFile() {
#if PILOT_HAVE_MMAP
  if (map_ != nullptr) ::munmap(map_, map_len_);
#endif
}

}  // namespace util
