// pilot-tracegen: seeded synthetic CLOG-2 generator. Produces traces far
// larger than the mpisim workloads can log in test time (10^5..10^7
// instances), for scaling benches and multi-thread determinism checks.
//
// --stream[=RATE] switches from write-a-file to emit-a-stream: the same
// bytes go to stdout (out path "-") or are appended to any writable path —
// typically a FIFO feeding pilot-traced. RATE paces the emission at
// approximately that many records per second so tests and demos can watch
// a session fill up; the byte sequence is identical to file mode at every
// rate.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "tracegen/tracegen.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

void emit_stream(const std::string& out, const std::vector<std::uint8_t>& bytes,
                 std::size_t nrecords, double rate) {
  std::FILE* f = nullptr;
  const bool to_stdout = out == "-";
  if (to_stdout) {
    f = stdout;
  } else {
    // "a"ppend keeps a FIFO's write-end semantics simple and still creates
    // regular files from scratch.
    f = std::fopen(out.c_str(), "ab");
    if (f == nullptr) throw util::IoError("cannot open stream target " + out);
  }
  // Pace by slicing the byte stream into ~20ms quanta at the average
  // record size, so RATE records/second holds without per-record framing
  // (the bytes stay identical to file mode by construction).
  std::size_t chunk = bytes.size();
  std::chrono::duration<double> pause{0.0};
  if (rate > 0.0 && nrecords > 0) {
    const double bytes_per_sec =
        rate * static_cast<double>(bytes.size()) / static_cast<double>(nrecords);
    chunk = static_cast<std::size_t>(bytes_per_sec * 0.02);
    if (chunk == 0) chunk = 1;
    pause = std::chrono::duration<double>(static_cast<double>(chunk) / bytes_per_sec);
  }
  if (chunk == 0) chunk = 1;  // empty-trace guard for the loop below
  for (std::size_t off = 0; off < bytes.size(); off += chunk) {
    const std::size_t n = std::min(chunk, bytes.size() - off);
    if (std::fwrite(bytes.data() + off, 1, n, f) != n)
      throw util::IoError("short write to " + out);
    std::fflush(f);
    if (pause.count() > 0.0 && off + n < bytes.size())
      std::this_thread::sleep_for(pause);
  }
  if (!to_stdout) std::fclose(f);
}

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  if (args.positional().size() != 1 || args.has("help")) {
    std::fprintf(stderr,
                 "usage: %s <out.clog2|-> [--events=N] [--ranks=N] [--seed=S]\n"
                 "       [--arrows=FRACTION] [--solo=FRACTION] [--states=N]\n"
                 "       [--depth=N] [--stream[=RATE]] [--quiet]\n"
                 "  --stream writes the CLOG-2 byte stream to the target path\n"
                 "  (or stdout for \"-\") instead of creating a file; RATE\n"
                 "  paces it at about that many records per second.\n",
                 args.program().c_str());
    return 2;
  }
  tracegen::Options opts;
  opts.events = static_cast<std::uint64_t>(args.get_int_or("events", 100000));
  const long long ranks = args.get_int_or("ranks", 8);
  if (ranks < 1 || ranks > clog2::kMaxRanks) {
    std::fprintf(stderr, "error: --ranks must be in 1..%d (got %lld)\n",
                 clog2::kMaxRanks, ranks);
    return 2;
  }
  opts.nranks = static_cast<std::int32_t>(ranks);
  opts.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  opts.arrow_fraction = args.get_double_or("arrows", opts.arrow_fraction);
  opts.solo_fraction = args.get_double_or("solo", opts.solo_fraction);
  opts.state_categories = static_cast<int>(
      args.get_int_or("states", opts.state_categories));
  opts.max_depth = static_cast<int>(args.get_int_or("depth", opts.max_depth));
  const bool quiet = args.has("quiet");
  const bool stream = args.has("stream");
  double rate = 0.0;
  if (stream) {
    const std::string rate_text = args.get_or("stream", "");
    if (!rate_text.empty() && rate_text != "true") {  // bare --stream = unpaced
      rate = std::strtod(rate_text.c_str(), nullptr);
      if (rate <= 0.0) {
        std::fprintf(stderr, "error: --stream rate must be positive (got %s)\n",
                     rate_text.c_str());
        return 2;
      }
    }
  }
  for (const auto& k : args.unused_keys()) {
    std::fprintf(stderr, "error: unknown option --%s\n", k.c_str());
    return 2;
  }

  const auto file = tracegen::generate(opts);
  if (stream) {
    emit_stream(args.positional()[0], clog2::serialize(file), file.records.size(),
                rate);
    if (!quiet)
      std::fprintf(stderr, "streamed %zu records (%d ranks, seed %llu) to %s\n",
                   file.records.size(), file.nranks,
                   static_cast<unsigned long long>(opts.seed),
                   args.positional()[0].c_str());
    return 0;
  }
  if (args.positional()[0] == "-") {
    std::fprintf(stderr, "error: \"-\" requires --stream\n");
    return 2;
  }
  clog2::write_file(args.positional()[0], file);
  if (!quiet)
    std::printf("wrote %s (%zu records, %d ranks, seed %llu)\n",
                args.positional()[0].c_str(), file.records.size(), file.nranks,
                static_cast<unsigned long long>(opts.seed));
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
