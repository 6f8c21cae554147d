// The trace corpus the analysis tests share: the golden fixtures, seeded
// tracegen traces with the postmortem benchmark's crash-style twin and
// one-field flips, and seeded fault-injected runs of a Pilot farm.
// tests/analysis_golden_test.cpp pins the reports over it, and
// tests/analysis_oracle_test.cpp holds the matcher and the structural diff
// to their record-level oracles on the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "clog2/clog2.hpp"
#include "mpe/mpe.hpp"
#include "pilot/pi.hpp"
#include "pilot/runtime.hpp"
#include "tracegen/tracegen.hpp"
#include "util/fs.hpp"
#include "util/prng.hpp"

namespace analysis_corpus {

inline std::string fixture(const std::string& name) {
  return std::string(PILOT_FIXTURE_DIR) + "/" + name;
}

inline int rank_of(const clog2::Record& rec) {
  if (const auto* e = std::get_if<clog2::EventRec>(&rec)) return e->rank;
  if (const auto* m = std::get_if<clog2::MsgRec>(&rec)) return m->rank;
  return -1;
}

/// The postmortem benchmark's crash-style twin: the victim rank loses the
/// second half of its records.
inline clog2::File truncate_rank_tail(const clog2::File& ref, int victim) {
  std::size_t victim_records = 0;
  for (const auto& rec : ref.records)
    if (rank_of(rec) == victim) ++victim_records;
  const std::size_t keep = victim_records / 2;
  clog2::File out = ref;
  out.records.clear();
  std::size_t seen = 0;
  for (const auto& rec : ref.records) {
    if (rank_of(rec) == victim && ++seen > keep) continue;
    out.records.push_back(rec);
  }
  return out;
}

/// Index of the middle record holding alternative T that satisfies `pick`.
template <typename T, typename Pick>
std::size_t middle_record(const clog2::File& f, Pick pick) {
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i < f.records.size(); ++i)
    if (const auto* r = std::get_if<T>(&f.records[i]); r != nullptr && pick(*r))
      at.push_back(i);
  return at.empty() ? 0 : at[at.size() / 2];
}

/// One seeded tracegen trace (20k records, 8 ranks) and its variants.
struct TracegenSet {
  clog2::File ref;
  clog2::File twin;   ///< crash-style twin, victim picked as the benchmark does
  clog2::File tag;    ///< the middle send's tag + 1
  clog2::File size;   ///< the middle receive's size + 3
  clog2::File event;  ///< the middle event's id + 1
};

inline TracegenSet tracegen_set(std::uint64_t seed) {
  tracegen::Options g;
  g.seed = seed;
  g.nranks = 8;
  g.events = 20000;
  TracegenSet s;
  s.ref = tracegen::generate(g);
  util::SplitMix64 rng(seed ^ 0x7777ULL);
  const int victim = 1 + static_cast<int>(rng.below(7));
  s.twin = truncate_rank_tail(s.ref, victim);

  const auto is_send = [](const clog2::MsgRec& m) {
    return m.kind == clog2::MsgRec::Kind::kSend;
  };
  const auto is_recv = [](const clog2::MsgRec& m) {
    return m.kind == clog2::MsgRec::Kind::kRecv;
  };
  s.tag = s.ref;
  std::get<clog2::MsgRec>(s.tag.records[middle_record<clog2::MsgRec>(s.ref, is_send)])
      .tag += 1;
  s.size = s.ref;
  std::get<clog2::MsgRec>(
      s.size.records[middle_record<clog2::MsgRec>(s.ref, is_recv)])
      .size += 3;
  s.event = s.ref;
  std::get<clog2::EventRec>(
      s.event.records[middle_record<clog2::EventRec>(
          s.ref, [](const clog2::EventRec&) { return true; })])
      .event_id += 1;
  return s;
}

// --- fault-injected Pilot runs -----------------------------------------------

inline constexpr int kWorkers = 3;
inline constexpr int kRounds = 4;

inline PI_CHANNEL* g_to[kWorkers];
inline PI_CHANNEL* g_from[kWorkers];

inline int farm_worker(int index, void*) {
  for (int r = 0; r < kRounds; ++r) {
    int base = 0;
    PI_Read(g_to[index], "%d", &base);
    int sum = 0;
    for (int v = 0; v < 100; ++v) sum += base + v;
    PI_Write(g_from[index], "%d", sum);
  }
  return 0;
}

/// The lab2-style sum farm on the tasks substrate (virtual time, so every
/// timestamp is run-stable). Pilot logs each call's source line, and the
/// diff reports quote it: moving these lines moves the pinned hashes of the
/// fault runs in tests/analysis_golden_test.cpp.
inline pilot::RunResult run_farm(std::vector<std::string> extra) {
  std::vector<std::string> args = {"prog", "-piwatchdog=20", "-pisvc=j",
                                   "-pirobust", "-piexec=tasks"};
  for (auto& a : extra) args.push_back(std::move(a));
  return pilot::run(args, [](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    for (int i = 0; i < kWorkers; ++i) {
      PI_PROCESS* w = PI_CreateProcess(farm_worker, i, nullptr);
      g_to[i] = PI_CreateChannel(PI_MAIN, w);
      g_from[i] = PI_CreateChannel(w, PI_MAIN);
    }
    PI_StartAll();
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < kWorkers; ++i) PI_Write(g_to[i], "%d", r * 10 + i);
      for (int i = 0; i < kWorkers; ++i) {
        int s = 0;
        PI_Read(g_from[i], "%d", &s);
      }
    }
    PI_StopMain(0);
    return 0;
  });
}

struct FaultRuns {
  clog2::File clean;
  clog2::File delayed;  ///< seeded message delays on rank 1's sends
  clog2::File crashed;  ///< rank 2 killed after its 9th record, salvaged
  bool ok = false;      ///< every run ended as planned
};

/// Runs the clean farm and its two faulted twins, writing into `dir`.
inline FaultRuns fault_runs(const util::TempDir& dir) {
  FaultRuns f;
  const std::string out = "-piout=" + dir.path().string();
  if (run_farm({out, "-piname=clean"}).aborted) return f;
  f.clean = clog2::read_file(dir.file("clean.clog2"));
  if (run_farm({out, "-piname=delay", "-pifault=seed=3;delay=0.8:4@1"}).aborted)
    return f;
  f.delayed = clog2::read_file(dir.file("delay.clog2"));
  if (!run_farm({out, "-piname=crash", "-pifault=seed=5;grace=0.4;crash=2@event:9"})
           .aborted)
    return f;
  f.crashed = mpe::salvage(dir.file("crash").string());
  f.ok = true;
  return f;
}

// --- one corpus per test binary ------------------------------------------------
// The farm runs and the tracegen sets are the slow part of the corpus, and
// every suite reads the same traces: a run of the test binary builds each
// once and shares it.

inline const FaultRuns& shared_fault_runs() {
  static const FaultRuns runs = [] {
    const util::TempDir dir;
    return fault_runs(dir);
  }();
  return runs;
}

/// tracegen_set() for seeds 7 and 501, in that order.
inline const std::vector<std::pair<std::uint64_t, TracegenSet>>&
shared_tracegen_sets() {
  static const auto sets = [] {
    std::vector<std::pair<std::uint64_t, TracegenSet>> v;
    for (const std::uint64_t seed : {7ULL, 501ULL})
      v.emplace_back(seed, tracegen_set(seed));
    return v;
  }();
  return sets;
}

}  // namespace analysis_corpus
