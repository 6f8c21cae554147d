// pilot-slog2print: structural summary (and optional full drawable dump) of
// an SLOG-2 file.
#include <cstdio>
#include <exception>

#include "slog2/slog2.hpp"
#include "util/cli.hpp"

namespace {

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  if (args.positional().size() != 1 || args.has("help")) {
    std::fprintf(stderr,
                 "usage: %s <trace.slog2> [--drawables] "
                 "[--frame-encoding=v1|v2]\n",
                 args.program().c_str());
    return 2;
  }
  const bool drawables = args.has("drawables");
  const std::string& path = args.positional()[0];
  slog2::ReadOptions ro;
  // Pin the expected frame encoding: a file using any other encoding is
  // rejected with a named diagnostic instead of being decoded.
  if (args.has("frame-encoding"))
    ro.require_encoding =
        slog2::parse_frame_encoding(args.get_or("frame-encoding", "v1"));
  try {
    // Reads page-cache slices of a mapping frame by frame (only the
    // directory and one frame are decoded at a time); the validation pass
    // rejects corrupt files before any output.
    slog2::stream_text(
        path, drawables,
        [](const std::string& chunk) { std::fputs(chunk.c_str(), stdout); },
        ro);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
