// pilot-clog2print: dump a CLOG-2 trace as text — the paper's preferred way
// to diagnose problems with log contents before conversion (Section II-A).
#include <cstdio>
#include <exception>

#include "clog2/clog2.hpp"
#include "util/cli.hpp"

namespace {

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  if (args.positional().size() != 1 || args.has("help")) {
    std::fprintf(stderr, "usage: %s <trace.clog2>\n", args.program().c_str());
    return 2;
  }
  const std::string& path = args.positional()[0];
  try {
    // Reads page-cache slices of a mapping one record at a time (the record
    // vector is never built); validation runs before any output, so
    // truncated or corrupt traces still fail loudly with the file named and
    // no half-printed dump.
    clog2::stream_text(path,
                       [](const std::string& chunk) { std::fputs(chunk.c_str(), stdout); });
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
