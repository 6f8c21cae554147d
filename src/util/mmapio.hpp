// Memory-mapped whole-file reading: MappedFile maps a file read-only, so
// decoders (util::ByteReader over data()/size()) read borrowed slices of
// the page cache instead of a copy. Where mmap is unavailable (platform,
// FIFO, device) it reads the file into an owned buffer instead; callers see
// the same bytes either way. The SLOG-2 readers and both trace printers
// open their files this way.
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

namespace util {

/// RAII whole-file mapping (read-only). Falls back to an owned buffer when
/// mmap is unavailable; data()/size() behave identically in both modes.
class MappedFile {
public:
  MappedFile() = default;
  explicit MappedFile(const std::filesystem::path& path);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

private:
  /// Map `path` (false, nothing read, when mmap is unavailable for this
  /// platform or file; an empty regular file is an empty view).
  bool try_map(const std::filesystem::path& path);

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  void* map_ = nullptr;  // munmap() target when mapped
  std::size_t map_len_ = 0;
  std::vector<std::uint8_t> fallback_;
};

}  // namespace util
