#include "util/fs.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>

#include "util/error.hpp"

namespace util {

namespace fs = std::filesystem;

std::vector<std::uint8_t> read_file(const fs::path& path) {
  // A directory opens as a stream on Linux and "sizes" to garbage.
  std::error_code ec;
  if (fs::is_directory(path, ec))
    throw IoError("cannot read " + path.string() + ": is a directory");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open for read: " + path.string());
  std::vector<std::uint8_t> out;
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size < 0) throw IoError("cannot size: " + path.string());
  out.resize(static_cast<std::size_t>(size));
  in.seekg(0, std::ios::beg);
  if (size > 0 && !in.read(reinterpret_cast<char*>(out.data()), size))
    throw IoError("short read: " + path.string());
  return out;
}

void write_file(const fs::path& path, const void* data, std::size_t n) {
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("cannot open for write: " + tmp.string());
    if (n > 0) out.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
    if (!out) throw IoError("short write: " + tmp.string());
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) throw IoError("rename " + tmp.string() + " -> " + path.string() + ": " + ec.message());
}

void write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  write_file(path, bytes.data(), bytes.size());
}

void write_file(const fs::path& path, const std::string& text) {
  write_file(path, text.data(), text.size());
}

std::string read_text_file(const fs::path& path) {
  auto bytes = read_file(path);
  return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

TempDir::TempDir(const std::string& prefix) {
  static std::atomic<unsigned> counter{0};
  const fs::path base = fs::temp_directory_path();
  for (int attempt = 0; attempt < 100; ++attempt) {
    fs::path candidate =
        base / (prefix + "-" + std::to_string(counter.fetch_add(1)) + "-" +
                std::to_string(attempt));
    std::error_code ec;
    if (fs::create_directory(candidate, ec)) {
      path_ = candidate;
      return;
    }
  }
  throw IoError("could not create temporary directory under " + base.string());
}

TempDir::~TempDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);  // best effort; never throw from a destructor
}

}  // namespace util
