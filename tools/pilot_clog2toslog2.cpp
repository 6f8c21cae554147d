// pilot-clog2toslog2: the conversion step of the paper's pipeline. Reports
// the same class of diagnostics the real clog2TOslog2 emits — including the
// "Equal Drawables" warning of Section III-C — and exposes the frame-size
// conversion parameter.
#include <cstdio>
#include <exception>
#include <string>

#include "slog2/slog2.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace {

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  if (args.positional().size() != 1 || args.has("help")) {
    std::fprintf(stderr,
                 "usage: %s <trace.clog2> [--out=trace.slog2] "
                 "[--framesize=BYTES] [--maxdepth=N] [--threads=N] "
                 "[--frame-encoding=v1|v2] [--quiet]\n",
                 args.program().c_str());
    return 2;
  }
  const std::string in_path = args.positional()[0];
  std::string out_path = args.get_or("out", "");
  if (out_path.empty()) {
    out_path = in_path;
    if (util::ends_with(out_path, ".clog2"))
      out_path.resize(out_path.size() - 6);
    out_path += ".slog2";
  }

  slog2::ConvertOptions opts;
  opts.frame_size = static_cast<std::uint64_t>(args.get_int_or("framesize", 64 * 1024));
  opts.max_depth = static_cast<int>(args.get_int_or("maxdepth", 24));
  // Still accepted; conversion is one serial pass and no longer reads it.
  opts.threads = util::parse_threads(args);
  // v1 = fixed-width record payloads (default, readable by old tools);
  // v2 = columnar delta-varint payloads (smaller, needs a v2-aware reader).
  opts.encoding = slog2::parse_frame_encoding(args.get_or("frame-encoding", "v1"));
  const bool quiet = args.has("quiet");

  for (const auto& k : args.unused_keys()) {
    std::fprintf(stderr, "error: unknown option --%s\n", k.c_str());
    return 2;
  }

  const auto clog = clog2::read_file(in_path);
  std::vector<std::string> warnings;
  const auto slog = slog2::convert(clog, opts, &warnings);
  slog2::write_file(out_path, slog);

  if (!quiet) {
    for (const auto& w : warnings) std::fprintf(stderr, "warning: %s\n", w.c_str());
    std::printf("%s", slog2::to_text(slog).c_str());
    std::printf("wrote %s\n", out_path.c_str());
  }
  return slog.stats.clean() ? 0 : 3;
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
