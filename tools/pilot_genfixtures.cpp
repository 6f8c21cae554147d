// pilot-genfixtures: (re)generate the golden-trace corpus under
// tests/fixtures/. Every byte is derived from fixed literals — no live run,
// no clocks — so the output is bit-stable across machines and reruns, which
// is what lets the parser fuzz tests and the salvage tests assert against
// checked-in files instead of regenerating traces at test time.
//
//   tiny.clog2            2-rank trace: defs, consts, syncs, a compute state
//                         per rank, one message pair, one bubble
//   tiny.slog2            the same trace through the CLOG-2 -> SLOG-2
//                         converter
//   tiny.v2.slog2         the same conversion with the v2 (columnar
//                         delta-varint) frame payload encoding
//   tiny.prl              a 2-rank replay log exercising every event kind
//   salvage.defs.spill    robust-mode spill set for mpe::salvage: the
//   salvage.rank0.spill   definition stream plus two per-rank record
//   salvage.rank1.spill   streams (bare CLOG-2 records, no file header)
//   messy.clog2           3-rank trace that trips most TCxxx checks at once
//                         (unmatched halves, clock anomaly, wildcard race,
//                         interval bugs, wait cycle) — the tracecheck golden
//   diffpair.a.clog2      reference / suspect pair for pilot-tracediff: b is
//   diffpair.b.clog2      a with rank 2's tail cut and one event swapped
//   tiny.svg              jumpshot render of tiny.slog2 (whole file, with
//                         the count/incl/excl legend table)
//   tiny.window.svg       jumpshot Navigator render of a window of
//                         tiny.slog2 (swatch legend)
//
// Usage: pilot-genfixtures [outdir]   (default: tests/fixtures)
#include <cstdio>
#include <exception>
#include <filesystem>

#include "clog2/clog2.hpp"
#include "jumpshot/render.hpp"
#include "replay/prl.hpp"
#include "slog2/slog2.hpp"
#include "util/bytebuf.hpp"
#include "util/cli.hpp"
#include "util/fs.hpp"

namespace {

clog2::File make_tiny_clog2() {
  clog2::File f;
  f.nranks = 2;
  f.comment = "golden fixture (pilot-genfixtures)";
  f.records = {
      clog2::EventDef{10, "Arrival", "yellow", "Msg: %d"},
      clog2::StateDef{1, 11, 12, "Compute", "gray", ""},
      clog2::ConstDef{"nranks", 2},
      clog2::SyncRec{0, 0.0, 0.0},
      clog2::SyncRec{1, 0.001, 0.0},
      clog2::EventRec{0.010, 0, 11, ""},                 // rank 0 compute begin
      clog2::EventRec{0.012, 1, 11, ""},                 // rank 1 compute begin
      clog2::MsgRec{0.020, 0, clog2::MsgRec::Kind::kSend, 1, 7, 16},
      clog2::EventRec{0.024, 1, 10, "Msg: 7"},           // arrival bubble
      clog2::MsgRec{0.025, 1, clog2::MsgRec::Kind::kRecv, 0, 7, 16},
      clog2::EventRec{0.030, 1, 12, ""},                 // rank 1 compute end
      clog2::EventRec{0.032, 0, 12, ""},                 // rank 0 compute end
      clog2::SyncRec{0, 0.040, 0.040},
      clog2::SyncRec{1, 0.041, 0.040},
  };
  return f;
}

replay::Log make_tiny_prl() {
  replay::Log log;
  log.per_rank = {
      {
          {replay::EventKind::kRecvMatch, 1, 0, 0},
          {replay::EventKind::kSelect, 2, 1, 0},
          {replay::EventKind::kBarrier, 0, 0, 0},
      },
      {
          {replay::EventKind::kProbeMatch, 0, 0, 0},
          {replay::EventKind::kTrySelect, 2, -1, 0},
          {replay::EventKind::kHasData, 3, 1, 0},
          {replay::EventKind::kBarrier, 1, 0, 0},
      },
  };
  return log;
}

/// Three ranks, every common tracecheck disease in one file: a matched pair
/// plus a concurrent same-destination pair (TC201), an orphan send (TC101)
/// and an orphan receive (TC102), a matched pair whose halves are stamped
/// out of order (TC103), interval bugs of every kind (TC401/402/404, plus a
/// never-ended PI_Read for TC403), and a two-rank terminal Wait cycle
/// (TC301). Timestamps are literals, so the golden verdict is bit-stable.
clog2::File make_messy_clog2() {
  using Kind = clog2::MsgRec::Kind;
  clog2::File f;
  f.nranks = 3;
  f.comment = "messy fixture (pilot-genfixtures)";
  f.records = {
      clog2::EventDef{10, "Arrival", "yellow", "Msg: %d"},
      clog2::EventDef{20, "Wait", "orange", "%s"},
      clog2::StateDef{1, 11, 12, "Compute", "gray", ""},
      clog2::StateDef{2, 13, 14, "PI_Read", "red", ""},
      clog2::ConstDef{"nranks", 3},
      clog2::SyncRec{0, 0.0, 0.0},
      clog2::SyncRec{1, 0.001, 0.0},
      clog2::SyncRec{2, 0.001, 0.0},
      clog2::EventRec{0.010, 0, 11, ""},  // compute begins
      clog2::EventRec{0.011, 1, 11, ""},
      clog2::EventRec{0.012, 2, 11, ""},
      // Concurrent sends from ranks 0 and 2 to rank 1 on one tag: TC201.
      clog2::MsgRec{0.020, 0, Kind::kSend, 1, 5, 8},
      clog2::MsgRec{0.021, 2, Kind::kSend, 1, 5, 8},
      clog2::MsgRec{0.025, 1, Kind::kRecv, 0, 5, 8},
      clog2::MsgRec{0.026, 1, Kind::kRecv, 2, 5, 8},
      // Orphan send (TC101) and orphan receive (TC102).
      clog2::MsgRec{0.030, 0, Kind::kSend, 2, 9, 4},
      clog2::MsgRec{0.031, 1, Kind::kRecv, 2, 7, 4},
      // Matched, but the receive is stamped before the send: TC103.
      clog2::MsgRec{0.040, 0, Kind::kSend, 1, 8, 4},
      clog2::MsgRec{0.035, 1, Kind::kRecv, 0, 8, 4},
      // PI_Read end with no start on rank 2: TC401.
      clog2::EventRec{0.045, 2, 14, ""},
      // Negative-duration PI_Read on rank 2: TC402.
      clog2::EventRec{0.050, 2, 13, ""},
      clog2::EventRec{0.048, 2, 14, ""},
      // Compute re-entered on rank 0 while still open: TC404.
      clog2::EventRec{0.052, 0, 11, ""},
      clog2::EventRec{0.054, 0, 12, ""},
      clog2::EventRec{0.056, 0, 12, ""},
      // PI_Read on rank 1 that never ends: TC403.
      clog2::EventRec{0.058, 1, 13, ""},
      // Terminal Wait cycle between ranks 1 and 2: TC301.
      clog2::EventRec{0.060, 2, 20, "C1<-R1"},
      clog2::EventRec{0.061, 1, 20, "C2<-R2"},
  };
  return f;
}

/// Reference / suspect pair for the tracediff golden. The suspect drops
/// rank 2's last two records (a crashed-rank shape) and swaps the payload
/// size of one rank-1 message (a first-divergent-event shape).
std::pair<clog2::File, clog2::File> make_diffpair() {
  using Kind = clog2::MsgRec::Kind;
  clog2::File a;
  a.nranks = 3;
  a.comment = "diffpair reference (pilot-genfixtures)";
  a.records = {
      clog2::EventDef{10, "Round", "yellow", "L%d main i%d"},
      clog2::StateDef{1, 11, 12, "Compute", "gray", ""},
      clog2::SyncRec{0, 0.0, 0.0},
      clog2::SyncRec{1, 0.001, 0.0},
      clog2::SyncRec{2, 0.001, 0.0},
      clog2::EventRec{0.010, 0, 10, "L42 main i0"},
      clog2::EventRec{0.011, 1, 11, ""},
      clog2::EventRec{0.012, 2, 11, ""},
      clog2::MsgRec{0.020, 0, Kind::kSend, 1, 3, 8},
      clog2::MsgRec{0.022, 1, Kind::kRecv, 0, 3, 8},
      clog2::MsgRec{0.024, 0, Kind::kSend, 2, 3, 8},
      clog2::MsgRec{0.026, 2, Kind::kRecv, 0, 3, 8},
      clog2::EventRec{0.028, 1, 10, "L57 worker i1"},
      clog2::MsgRec{0.030, 1, Kind::kSend, 0, 4, 8},
      clog2::MsgRec{0.032, 0, Kind::kRecv, 1, 4, 8},
      clog2::EventRec{0.040, 1, 12, ""},
      clog2::MsgRec{0.044, 2, Kind::kSend, 0, 4, 8},
      clog2::MsgRec{0.046, 0, Kind::kRecv, 2, 4, 8},
      clog2::EventRec{0.050, 2, 12, ""},
  };
  clog2::File b = a;
  b.comment = "diffpair suspect (pilot-genfixtures)";
  // Swap one matched message's size on rank 1 (and its recv half on rank 0).
  b.records[13] = clog2::MsgRec{0.030, 1, Kind::kSend, 0, 4, 16};
  b.records[14] = clog2::MsgRec{0.032, 0, Kind::kRecv, 1, 4, 16};
  // Cut rank 2's tail: the send at 0.044 and everything after it on rank 2.
  b.records.erase(b.records.begin() + 16);  // send 2->0
  b.records.pop_back();                     // compute end on rank 2
  return {a, b};
}

void write_records(const std::filesystem::path& path,
                   const std::vector<clog2::Record>& records) {
  util::ByteWriter w;
  for (const auto& r : records) clog2::append_record(w, r);
  util::write_file(path, w.bytes());
}

void make_salvage_spills(const std::filesystem::path& dir) {
  write_records(dir / "salvage.defs.spill",
                {
                    clog2::EventDef{10, "Arrival", "yellow", "Msg: %d"},
                    clog2::StateDef{1, 11, 12, "Compute", "gray", ""},
                });
  write_records(dir / "salvage.rank0.spill",
                {
                    clog2::SyncRec{0, 0.0, 0.0},
                    clog2::EventRec{0.010, 0, 11, ""},
                    clog2::MsgRec{0.020, 0, clog2::MsgRec::Kind::kSend, 1, 7, 16},
                    clog2::EventRec{0.032, 0, 12, ""},
                });
  write_records(dir / "salvage.rank1.spill",
                {
                    clog2::SyncRec{1, 0.001, 0.0},
                    clog2::EventRec{0.012, 1, 11, ""},
                    clog2::EventRec{0.024, 1, 10, "Msg: 7"},
                    clog2::MsgRec{0.025, 1, clog2::MsgRec::Kind::kRecv, 0, 7, 16},
                    // No compute-end: rank 1 "died" mid-run, like a real
                    // salvage scenario.
                });
}

/// The renderer goldens, drawn from the checked-in tiny.slog2 exactly the
/// way jumpshot_render_test reads it back, so the two compare byte for byte.
void write_tiny_renders(const std::filesystem::path& dir) {
  jumpshot::RenderOptions opts;
  opts.title = "tiny <golden> & co";
  util::write_file(dir / "tiny.svg",
                   jumpshot::render_svg(slog2::read_file(dir / "tiny.slog2"), opts));
  slog2::Navigator nav(dir / "tiny.slog2");
  opts.t0 = 0.011;
  opts.t1 = 0.031;
  util::write_file(dir / "tiny.window.svg", jumpshot::render_svg(nav, opts));
}

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  if (args.positional().size() > 1 || args.has("help")) {
    std::fprintf(stderr, "usage: %s [outdir]   (default: tests/fixtures)\n",
                 args.program().c_str());
    return 2;
  }
  const std::filesystem::path dir =
      args.positional().empty() ? "tests/fixtures" : args.positional()[0];
  std::filesystem::create_directories(dir);

  const clog2::File tiny = make_tiny_clog2();
  clog2::write_file(dir / "tiny.clog2", tiny);
  slog2::write_file(dir / "tiny.slog2", slog2::convert(tiny));
  {
    slog2::ConvertOptions co;
    co.encoding = slog2::FrameEncoding::kV2;
    slog2::write_file(dir / "tiny.v2.slog2", slog2::convert(tiny, co));
  }
  write_tiny_renders(dir);
  replay::write_file(dir / "tiny.prl", make_tiny_prl());
  make_salvage_spills(dir);
  clog2::write_file(dir / "messy.clog2", make_messy_clog2());
  const auto [diff_a, diff_b] = make_diffpair();
  clog2::write_file(dir / "diffpair.a.clog2", diff_a);
  clog2::write_file(dir / "diffpair.b.clog2", diff_b);

  std::printf(
      "wrote tiny.clog2 tiny.slog2 tiny.v2.slog2 tiny.prl salvage.*.spill "
      "messy.clog2 diffpair.{a,b}.clog2 tiny.svg tiny.window.svg -> %s\n",
      dir.string().c_str());
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
