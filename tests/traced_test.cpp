// traced: online conversion byte-identity, streaming reader semantics,
// session management, and the NDJSON service — the pilot-traced subsystem.
//
// The load-bearing property is pinned in OnlineMatchesOffline*: feeding a
// CLOG-2 byte stream through clog2::StreamReader + traced::OnlineConverter
// in ANY chunking and finalizing must produce the same serialized SLOG-2
// bytes (and the same warning list) as the offline slog2::convert on the
// parsed file. TracedScale repeats this at 10^6 events (see also
// pipeline_scale_test for the offline pipeline at that size).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clog2/clog2.hpp"
#include "jumpshot/render.hpp"
#include "query/slog2_rollup.hpp"
#include "slog2/convert_internal.hpp"
#include "slog2/slog2.hpp"
#include "tracegen/tracegen.hpp"
#include "traced/online_convert.hpp"
#include "traced/protocol.hpp"
#include "traced/service.hpp"
#include "traced/session.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/prng.hpp"
#include "util/strings.hpp"

namespace {

std::filesystem::path fixture(const std::string& name) {
  return std::filesystem::path(PILOT_FIXTURE_DIR) / name;
}

// Drive a StreamReader + OnlineConverter over `bytes` in fixed-size
// chunks, exactly the way Session::feed does.
slog2::File online_convert(const std::vector<std::uint8_t>& bytes,
                           std::size_t chunk, const traced::OnlineOptions& oo,
                           std::vector<std::string>* warnings = nullptr,
                           traced::OnlineUsage* usage_out = nullptr) {
  clog2::StreamReader reader;
  traced::OnlineConverter conv(oo);
  bool begun = false;
  clog2::Record rec;
  for (std::size_t off = 0; off < bytes.size(); off += chunk) {
    const std::size_t n = std::min(chunk, bytes.size() - off);
    reader.feed(bytes.data() + off, n);
    for (;;) {
      const auto st = reader.next(&rec);
      if (reader.header_done() && !begun) {
        conv.begin(reader.nranks());
        begun = true;
      }
      if (st != clog2::StreamReader::Status::kRecord) break;
      conv.push(rec);
    }
  }
  EXPECT_TRUE(reader.finished()) << "stream did not reach the end-of-log marker";
  if (usage_out != nullptr) *usage_out = conv.usage();
  return conv.finalize(warnings);
}

void expect_online_matches_offline(const std::vector<std::uint8_t>& bytes,
                                   const std::vector<std::size_t>& chunks,
                                   const traced::OnlineOptions& oo,
                                   const std::string& label) {
  const clog2::File parsed = clog2::parse(bytes);
  slog2::ConvertOptions co = oo.convert;
  std::vector<std::string> offline_warnings;
  const slog2::File offline = slog2::convert(parsed, co, &offline_warnings);
  const std::vector<std::uint8_t> offline_bytes = slog2::serialize(offline);
  for (const std::size_t chunk : chunks) {
    std::vector<std::string> online_warnings;
    const slog2::File online = online_convert(bytes, chunk, oo, &online_warnings);
    EXPECT_EQ(slog2::serialize(online), offline_bytes)
        << label << ": byte mismatch at chunk size " << chunk;
    EXPECT_EQ(online_warnings, offline_warnings)
        << label << ": warning mismatch at chunk size " << chunk;
  }
}

std::vector<std::uint8_t> tracegen_bytes(std::uint64_t events, std::int32_t ranks,
                                         std::uint64_t seed = 1) {
  tracegen::Options o;
  o.events = events;
  o.nranks = ranks;
  o.seed = seed;
  return clog2::serialize(tracegen::generate(o));
}

TEST(Traced, OnlineMatchesOfflineOnGoldenFixtures) {
  const std::vector<std::size_t> chunks = {1, 3, 17, 256, 1 << 20};
  for (const char* name :
       {"tiny.clog2", "messy.clog2", "diffpair.a.clog2", "diffpair.b.clog2"}) {
    const auto bytes = util::read_file(fixture(name));
    traced::OnlineOptions oo;
    oo.convert.threads = 2;
    expect_online_matches_offline(bytes, chunks, oo, name);
  }
}

TEST(Traced, OnlineMatchesOfflineOnTracegen) {
  const auto bytes = tracegen_bytes(5000, 6, 7);
  traced::OnlineOptions oo;
  oo.convert.threads = 2;
  oo.seal_bytes = 8 * 1024;  // force many sealed chunks
  expect_online_matches_offline(bytes, {1, 13, 4097, bytes.size()}, oo, "tracegen");
}

TEST(Traced, OnlineMatchesOfflineWithSpillDir) {
  util::TempDir tmp("traced");
  const auto bytes = tracegen_bytes(20000, 8, 3);
  traced::OnlineOptions oo;
  oo.convert.threads = 3;
  oo.seal_bytes = 4 * 1024;
  // tracegen emits a time-sorted stream spanning a few ms; the default
  // 50ms reorder window would hold the whole trace pending and nothing
  // would seal. A tight bound drives the steady-state admit/seal path.
  oo.max_disorder = 1e-6;
  oo.spill_dir = tmp.file("spill");
  std::vector<std::string> warnings;
  traced::OnlineUsage usage;
  const slog2::File online = online_convert(bytes, 4096, oo, &warnings, &usage);
  EXPECT_GT(usage.sealed_chunks, 4U) << "seal_bytes did not trigger sealing";
  EXPECT_GT(usage.sealed_bytes, 0U);
  // Bounded memory: the live working set must stay far below the sealed
  // total once sealing kicks in.
  EXPECT_LT(usage.peak_live_bytes, usage.sealed_bytes + 256 * 1024);
  const clog2::File parsed = clog2::parse(bytes);
  slog2::ConvertOptions co = oo.convert;
  const slog2::File offline = slog2::convert(parsed, co);
  EXPECT_EQ(slog2::serialize(online), slog2::serialize(offline));
}

TEST(Traced, OnlineNonDefaultFrameOptions) {
  const auto bytes = tracegen_bytes(3000, 4, 11);
  traced::OnlineOptions oo;
  oo.convert.frame_size = 2048;
  oo.convert.max_depth = 6;
  oo.convert.preview_buckets = 16;
  oo.convert.threads = 2;
  expect_online_matches_offline(bytes, {97, bytes.size()}, oo, "small frames");
}

TEST(Traced, StreamReaderReportsNeedMoreDataOnEveryPrefix) {
  const auto bytes = util::read_file(fixture("tiny.clog2"));
  // Any strict prefix is "incomplete", never "corrupt": feeding it must
  // yield records then kNeedMoreData, and completing the stream afterwards
  // must finish cleanly with the full record count.
  const clog2::File parsed = clog2::parse(bytes);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    clog2::StreamReader reader;
    reader.feed(bytes.data(), cut);
    clog2::Record rec;
    std::uint64_t seen = 0;
    for (;;) {
      const auto st = reader.next(&rec);
      if (st == clog2::StreamReader::Status::kRecord) {
        ++seen;
        continue;
      }
      ASSERT_NE(st, clog2::StreamReader::Status::kEnd) << "prefix " << cut;
      break;  // kNeedMoreData — the only legal terminal state for a prefix
    }
    EXPECT_FALSE(reader.finished());
    reader.feed(bytes.data() + cut, bytes.size() - cut);
    for (;;) {
      const auto st = reader.next(&rec);
      if (st == clog2::StreamReader::Status::kRecord) {
        ++seen;
        continue;
      }
      ASSERT_EQ(st, clog2::StreamReader::Status::kEnd) << "prefix " << cut;
      break;
    }
    EXPECT_TRUE(reader.finished());
    EXPECT_EQ(seen, parsed.records.size());
  }
}

TEST(Traced, StreamReaderAgreesWithParseOnCorruption) {
  // Flip one byte at a spread of offsets; the streaming reader must accept
  // exactly the files parse() accepts (the fuzz-suite verdict contract).
  const auto clean = util::read_file(fixture("messy.clog2"));
  for (std::size_t off = 0; off < clean.size();
       off += std::max<std::size_t>(1, clean.size() / 23)) {
    auto bytes = clean;
    bytes[off] ^= 0xFF;
    bool parse_ok = true;
    try {
      const clog2::File f = clog2::parse(bytes);
      (void)f;
    } catch (const util::IoError&) {
      parse_ok = false;
    }
    bool stream_ok = true;
    try {
      clog2::StreamReader reader;
      reader.feed(bytes.data(), bytes.size());
      clog2::Record rec;
      while (reader.next(&rec) == clog2::StreamReader::Status::kRecord) {
      }
      stream_ok = reader.finished();  // stuck at kNeedMoreData = incomplete
    } catch (const util::IoError&) {
      stream_ok = false;
    }
    EXPECT_EQ(stream_ok, parse_ok) << "verdict mismatch at flipped offset " << off;
  }
}

TEST(Traced, StreamReaderRejectsTrailingGarbage) {
  auto bytes = util::read_file(fixture("tiny.clog2"));
  clog2::StreamReader reader;
  reader.feed(bytes.data(), bytes.size());
  clog2::Record rec;
  while (reader.next(&rec) == clog2::StreamReader::Status::kRecord) {
  }
  EXPECT_TRUE(reader.finished());
  const std::uint8_t junk = 0x42;
  EXPECT_THROW(reader.feed(&junk, 1), util::IoError);
}

TEST(Traced, OnlineRejectsExcessDisorder) {
  traced::OnlineOptions oo;
  oo.max_disorder = 0.01;
  traced::OnlineConverter conv(oo);
  conv.begin(2);
  conv.push(clog2::EventDef{1, "ping", "green", ""});
  conv.push(clog2::EventRec{1.000, 0, 1, ""});
  conv.push(clog2::EventRec{2.000, 1, 1, ""});
  // 0.5s behind a 2.0s watermark with a 10ms bound: hard error.
  EXPECT_THROW(conv.push(clog2::EventRec{1.500, 0, 1, ""}), util::IoError);
}

TEST(Traced, OnlineRejectsLateDefinitions) {
  traced::OnlineConverter conv{traced::OnlineOptions{}};
  conv.begin(1);
  conv.push(clog2::EventDef{1, "ping", "green", ""});
  conv.push(clog2::EventRec{0.5, 0, 1, ""});
  EXPECT_THROW(conv.push(clog2::EventDef{2, "late", "red", ""}), util::IoError);
}

// The error text a call raises, or "accepted".
template <typename Fn>
std::string error_of(const Fn& fn) {
  try {
    fn();
  } catch (const util::IoError& e) {
    return e.what();
  }
  return "accepted";
}

// A NaN or infinite instance time is not a time: InstKey would stop being a
// strict weak order, and offline and online once converted such a file to
// different bytes. Every way in names the record with one text.
TEST(Traced, NonFiniteTimestampsRejectedAtEveryEntry) {
  util::TempDir tmp("traced");
  const clog2::File clean = clog2::parse(tracegen_bytes(2000, 4, 3));
  std::size_t first_event = 0, first_msg = 0;
  for (std::size_t i = clean.records.size(); i-- > 0;) {
    if (std::holds_alternative<clog2::EventRec>(clean.records[i])) first_event = i;
    if (std::holds_alternative<clog2::MsgRec>(clean.records[i])) first_msg = i;
  }
  ASSERT_GT(first_event, 0U);
  ASSERT_GT(first_msg, 0U);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    for (const std::size_t at : {first_event, first_msg, clean.records.size() / 2}) {
      clog2::File f = clean;
      std::visit(
          [&](auto& r) {
            if constexpr (requires { r.timestamp; }) r.timestamp = bad;
          },
          f.records[at]);
      if (!std::holds_alternative<clog2::EventRec>(f.records[at]) &&
          !std::holds_alternative<clog2::MsgRec>(f.records[at]))
        continue;
      const std::string want =
          util::strprintf("clog2: record %zu: timestamp not finite", at);
      SCOPED_TRACE(util::strprintf("t=%f at record %zu", bad, at));
      const auto bytes = clog2::serialize(f);
      EXPECT_EQ(error_of([&] { clog2::parse(bytes); }), want);
      EXPECT_EQ(error_of([&] {
                  clog2::StreamReader reader;
                  reader.feed(bytes.data(), bytes.size());
                  clog2::Record rec;
                  while (reader.next(&rec) == clog2::StreamReader::Status::kRecord) {
                  }
                }),
                want);
      util::write_file(tmp.file("bad.clog2"), bytes);
      EXPECT_EQ(error_of([&] {
                  clog2::stream_text(tmp.file("bad.clog2"), [](const std::string&) {});
                }),
                want);
      for (const int threads : {1, 4}) {
        slog2::ConvertOptions co;
        co.threads = threads;
        EXPECT_EQ(error_of([&] { (void)slog2::convert(f, co); }), want);
      }
      EXPECT_EQ(error_of([&] {
                  traced::OnlineConverter conv;
                  conv.begin(f.nranks);
                  for (const auto& rec : f.records) conv.push(rec);
                  (void)conv.finalize();
                }),
                want);
    }
  }
}

// Offline and online pair through one Pairer, offline after sorting the
// file, online through its reorder heap. Feed both a stream that is out of
// order within a window below max_disorder, salted with everything the
// pairing pass must report, and require the same bytes and warnings from
// every offline thread count and online seal size.
TEST(Traced, OnlineMatchesOfflineOnDisorderedSaltedStreams) {
  using Kind = clog2::MsgRec::Kind;
  clog2::File f = clog2::parse(tracegen_bytes(6000, 6, 5));
  std::int32_t end_id = -1, start_id = -1;
  for (const auto& rec : f.records)
    if (const auto* d = std::get_if<clog2::StateDef>(&rec)) {
      start_id = d->start_event_id;
      end_id = d->end_event_id;
    }
  ASSERT_GE(end_id, 0);
  // Definitions stay in front; every instance is salted and shuffled.
  const auto first_inst = static_cast<std::ptrdiff_t>(std::find_if(
      f.records.begin(), f.records.end(), [](const clog2::Record& r) {
        return std::holds_alternative<clog2::EventRec>(r) ||
               std::holds_alternative<clog2::MsgRec>(r);
      }) - f.records.begin());
  std::vector<clog2::Record> insts(f.records.begin() + first_inst, f.records.end());
  f.records.resize(static_cast<std::size_t>(first_inst));
  const auto time_of = [](const clog2::Record& r) {
    if (const auto* e = std::get_if<clog2::EventRec>(&r)) return e->timestamp;
    return std::get<clog2::MsgRec>(r).timestamp;
  };
  const auto rank_of = [](const clog2::Record& r) {
    if (const auto* e = std::get_if<clog2::EventRec>(&r)) return e->rank;
    return std::get<clog2::MsgRec>(r).rank;
  };
  const double t0 = time_of(insts.front());
  const double span = time_of(insts.back()) - t0;
  ASSERT_GT(span, 0.0);
  const std::size_t base = insts.size();
  for (std::size_t k = 0; k < 180; ++k) {
    // Each salt record ties the time of an existing record on another rank.
    const clog2::Record& host = insts[(k * 61 + 7) % base];
    const double t = time_of(host);
    const std::int32_t rank = (rank_of(host) + 1 + static_cast<std::int32_t>(k)) % 6;
    switch (k % 6) {
      case 0:  // orphan end
        insts.emplace_back(clog2::EventRec{t, rank, end_id, "orphan"});
        break;
      case 1:  // unknown ids, dense and overflow
        insts.emplace_back(
            clog2::EventRec{t, rank, 500 + static_cast<std::int32_t>(k), ""});
        break;
      case 2:
        insts.emplace_back(clog2::EventRec{t, rank, 5000000, "far"});
        break;
      case 3:  // a send nobody receives
        insts.emplace_back(clog2::MsgRec{t, rank, Kind::kSend, (rank + 2) % 6, 900, 8});
        break;
      case 4:  // a receive nobody sent
        insts.emplace_back(clog2::MsgRec{t, rank, Kind::kRecv, (rank + 3) % 6, 901, 8});
        break;
      default:  // a state opened after the rank's last end: never closed
        insts.emplace_back(clog2::EventRec{t0 + span, rank, start_id, "open"});
        break;
    }
  }
  const double window = span / 64;
  traced::OnlineOptions oo;
  oo.max_disorder = 2 * window;
  for (const bool shuffled : {false, true}) {
    // Sorted: by time, ties in insertion order. Shuffled: by time plus a
    // jitter below `window`, so each record arrives at most `window` behind
    // the watermark.
    std::vector<std::pair<double, std::size_t>> order;
    util::SplitMix64 rnd(11);
    for (std::size_t i = 0; i < insts.size(); ++i) {
      const double jitter =
          shuffled ? window * static_cast<double>(rnd.below(1000)) / 1000.0 : 0.0;
      order.emplace_back(time_of(insts[i]) + jitter, i);
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    clog2::File in = f;
    for (const auto& [key, i] : order) in.records.push_back(insts[i]);
    const std::string label = shuffled ? "shuffled" : "sorted";

    std::vector<std::string> want_warnings;
    std::vector<std::uint8_t> want;
    for (const int threads : {1, 4}) {
      slog2::ConvertOptions co;
      co.threads = threads;
      std::vector<std::string> warnings;
      const auto bytes = slog2::serialize(slog2::convert(in, co, &warnings));
      if (want.empty()) {
        want = bytes;
        want_warnings = warnings;
        continue;
      }
      EXPECT_EQ(bytes, want) << label << ": offline threads " << threads;
      EXPECT_EQ(warnings, want_warnings) << label << ": offline threads " << threads;
    }
    ASSERT_EQ(want_warnings.size(), slog2::detail::kMaxWarningMessages) << label;
    const slog2::File offline = slog2::parse(want);
    EXPECT_GT(offline.stats.unmatched_state_ends + offline.stats.unknown_event_ids,
              slog2::detail::kMaxWarningMessages)
        << label;
    EXPECT_GT(offline.stats.unmatched_sends, 0U) << label;
    EXPECT_GT(offline.stats.unmatched_recvs, 0U) << label;
    EXPECT_GT(offline.stats.unclosed_states, 0U) << label;

    const auto stream = clog2::serialize(in);
    for (const std::uint64_t seal : {4U * 1024, 256U * 1024}) {
      oo.seal_bytes = seal;
      std::vector<std::string> warnings;
      traced::OnlineUsage usage;
      const slog2::File online = online_convert(stream, 4096, oo, &warnings, &usage);
      EXPECT_EQ(slog2::serialize(online), want) << label << ": seal " << seal;
      EXPECT_EQ(warnings, want_warnings) << label << ": seal " << seal;
      if (seal == 4U * 1024) {
        EXPECT_GT(usage.sealed_chunks, 1U) << label;
      }
    }
  }
}

TEST(Traced, QueryOnLiveSessionEqualsOfflinePrefix) {
  const auto bytes = tracegen_bytes(4000, 4, 5);
  const clog2::File parsed = clog2::parse(bytes);

  traced::OnlineOptions oo;
  oo.seal_bytes = 16 * 1024;
  oo.max_disorder = 1e-6;  // tracegen streams are sorted; admit eagerly
  traced::Session session("live", oo);
  // Feed in mid-size chunks but do NOT finalize: the query below runs
  // against the still-open session.
  for (std::size_t off = 0; off < bytes.size(); off += 1024)
    session.feed(bytes.data() + off, std::min<std::size_t>(1024, bytes.size() - off));
  ASSERT_EQ(session.status().phase, traced::SessionPhase::kComplete);

  double frontier = 0.0;
  query::LegendSweep live;
  session.with_converter([&](traced::OnlineConverter& conv) {
    frontier = conv.admitted_frontier();
    conv.visit_window(
        -1e300, 1e300,
        [&](const slog2::StateDrawable& s) { live.add_state(s); },
        [&](const slog2::EventDrawable& e) { live.add_event(e); },
        [&](const slog2::ArrowDrawable& a) { live.add_arrow(a); });
  });

  // Post-mortem reference: offline-convert the full trace, then keep only
  // drawables whose *commit instant* (state end, event time, later arrow
  // half) lies strictly before the live frontier — the exact set the
  // online converter had admitted.
  const slog2::File offline = slog2::convert(parsed, oo.convert);
  query::LegendSweep ref;
  offline.visit_window(
      -1e300, 1e300,
      [&](const slog2::StateDrawable& s) {
        if (s.end_time < frontier) ref.add_state(s);
      },
      [&](const slog2::EventDrawable& e) {
        if (e.time < frontier) ref.add_event(e);
      },
      [&](const slog2::ArrowDrawable& a) {
        if (std::max(a.start_time, a.end_time) < frontier) ref.add_arrow(a);
      });

  const auto live_tot = live.totals();
  const auto ref_tot = ref.totals();
  ASSERT_EQ(live_tot.size(), ref_tot.size());
  for (const auto& [cat, tot] : ref_tot) {
    ASSERT_TRUE(live_tot.count(cat) != 0) << "category " << cat;
    EXPECT_EQ(live_tot.at(cat).count, tot.count) << "category " << cat;
    EXPECT_DOUBLE_EQ(live_tot.at(cat).inclusive, tot.inclusive);
    EXPECT_DOUBLE_EQ(live_tot.at(cat).exclusive, tot.exclusive);
  }
}

TEST(Traced, MultiSessionIsolationThroughPool) {
  // Two sessions with different seeds interleaved chunk-by-chunk through
  // the shared pool: each must finalize to its own offline reference.
  const auto bytes_a = tracegen_bytes(2000, 3, 21);
  const auto bytes_b = tracegen_bytes(2000, 5, 22);
  traced::OnlineOptions oo;
  traced::SessionManager mgr;
  traced::IngestPool pool(3);
  auto sa = mgr.open("a", oo);
  auto sb = mgr.open("b", oo);
  const std::size_t chunk = 512;
  for (std::size_t off = 0; off < std::max(bytes_a.size(), bytes_b.size());
       off += chunk) {
    if (off < bytes_a.size())
      pool.submit(sa, {bytes_a.begin() + static_cast<std::ptrdiff_t>(off),
                       bytes_a.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(off + chunk, bytes_a.size()))});
    if (off < bytes_b.size())
      pool.submit(sb, {bytes_b.begin() + static_cast<std::ptrdiff_t>(off),
                       bytes_b.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(off + chunk, bytes_b.size()))});
  }
  pool.drain();
  ASSERT_EQ(sa->status().phase, traced::SessionPhase::kComplete);
  ASSERT_EQ(sb->status().phase, traced::SessionPhase::kComplete);

  auto finalize_bytes = [](const std::shared_ptr<traced::Session>& s) {
    std::vector<std::uint8_t> out;
    s->finalize(nullptr,
                [&](slog2::File& f) { out = slog2::serialize(f); });
    return out;
  };
  EXPECT_EQ(finalize_bytes(sa),
            slog2::serialize(slog2::convert(clog2::parse(bytes_a), oo.convert)));
  EXPECT_EQ(finalize_bytes(sb),
            slog2::serialize(slog2::convert(clog2::parse(bytes_b), oo.convert)));
}

TEST(Traced, ConcurrentSessionsStressPool) {
  // The TSan target: 8 sessions fed from 8 producer threads through a
  // 4-worker pool while a reader thread polls status and runs live
  // queries. Every session must still finalize byte-identically.
  constexpr int kSessions = 8;
  std::vector<std::vector<std::uint8_t>> streams;
  streams.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i)
    streams.push_back(tracegen_bytes(1200, 2 + (i % 3), 100 + (unsigned)i));

  traced::OnlineOptions oo;
  oo.seal_bytes = 8 * 1024;
  traced::SessionManager mgr;
  traced::IngestPool pool(4);
  std::vector<std::shared_ptr<traced::Session>> sessions;
  sessions.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i)
    sessions.push_back(mgr.open("s" + std::to_string(i), oo));

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      for (auto& s : sessions) {
        const auto st = s->status();
        if (st.phase == traced::SessionPhase::kOpen && st.records > 0) {
          try {
            s->with_converter([](traced::OnlineConverter& conv) {
              query::LegendSweep sweep;
              conv.visit_window(
                  -1e300, 1e300,
                  [&](const slog2::StateDrawable& sd) { sweep.add_state(sd); },
                  nullptr, nullptr);
              (void)sweep.totals();
            });
          } catch (const util::Error&) {
            // header may not have arrived yet; that's fine
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> producers;
  producers.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    producers.emplace_back([&, i] {
      const auto& bytes = streams[static_cast<std::size_t>(i)];
      for (std::size_t off = 0; off < bytes.size(); off += 777) {
        const std::size_t n = std::min<std::size_t>(777, bytes.size() - off);
        pool.submit(sessions[static_cast<std::size_t>(i)],
                    {bytes.begin() + static_cast<std::ptrdiff_t>(off),
                     bytes.begin() + static_cast<std::ptrdiff_t>(off + n)});
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.drain();
  done.store(true);
  reader.join();

  for (int i = 0; i < kSessions; ++i) {
    const auto& bytes = streams[static_cast<std::size_t>(i)];
    std::vector<std::uint8_t> online_bytes;
    sessions[static_cast<std::size_t>(i)]->finalize(
        nullptr, [&](slog2::File& f) { online_bytes = slog2::serialize(f); });
    EXPECT_EQ(online_bytes,
              slog2::serialize(slog2::convert(clog2::parse(bytes), oo.convert)))
        << "session " << i;
  }
}

TEST(Traced, IdleSessionsAreEvicted) {
  traced::SessionManager mgr;
  auto s1 = mgr.open("old", traced::OnlineOptions{});
  auto s2 = mgr.open("fresh", traced::OnlineOptions{});
  s1->touch(10.0);
  s2->touch(100.0);
  const auto evicted = mgr.evict_idle(/*now=*/200.0, /*ttl=*/150.0);
  ASSERT_EQ(evicted.size(), 1U);
  EXPECT_EQ(evicted[0], "old");
  EXPECT_EQ(mgr.find("old"), nullptr);
  EXPECT_NE(mgr.find("fresh"), nullptr);
  // A shared_ptr held across eviction stays usable (no lifetime races).
  EXPECT_EQ(s1->name(), "old");
}

TEST(Traced, ProtocolJsonRoundTrip) {
  const std::string line = traced::JsonWriter()
                               .field("op", "open")
                               .field("session", "r\"un\n1")
                               .field("bytes", std::int64_t{42})
                               .field("rate", 0.25)
                               .field("live", true)
                               .done();
  const traced::JsonObject obj = traced::JsonObject::parse(line);
  EXPECT_EQ(obj.str("op"), "open");
  EXPECT_EQ(obj.str("session"), "r\"un\n1");
  EXPECT_EQ(obj.num("bytes"), 42);
  EXPECT_DOUBLE_EQ(obj.fnum("rate"), 0.25);
  EXPECT_TRUE(obj.boolean("live"));
  EXPECT_THROW(obj.str("missing"), util::IoError);
  EXPECT_THROW(traced::JsonObject::parse("{\"a\":{}}"), util::IoError);
  EXPECT_THROW(traced::JsonObject::parse("not json"), util::IoError);
  EXPECT_THROW(traced::JsonObject::parse("{\"a\":1,\"a\":2}"), util::IoError);
}

// In-process protocol driver: handle() with the feed payload delivered
// from a cursor over a byte vector, like a socket would.
class ProtoClient {
public:
  explicit ProtoClient(traced::Service& svc) : svc_(svc) {}

  traced::JsonObject request(const std::string& line,
                             const std::vector<std::uint8_t>& payload = {}) {
    std::size_t cursor = 0;
    const std::string resp = svc_.handle(line, [&](void* buf, std::size_t n) {
      if (cursor + n > payload.size()) return false;
      std::memcpy(buf, payload.data() + cursor, n);
      cursor += n;
      return true;
    });
    return traced::JsonObject::parse(resp);
  }

private:
  traced::Service& svc_;
};

TEST(Traced, ServiceEndToEndInProcess) {
  util::TempDir tmp("traced");
  const auto bytes = tracegen_bytes(3000, 4, 9);

  traced::ServiceOptions so;
  so.workers = 2;
  so.online.seal_bytes = 16 * 1024;
  so.online.max_disorder = 1e-6;  // sorted stream; admit eagerly
  so.online.spill_dir = tmp.file("spill");
  traced::Service svc(so);
  ProtoClient client(svc);

  auto ok = [](const traced::JsonObject& r) { return r.boolean("ok"); };

  EXPECT_TRUE(ok(client.request(R"({"op":"ping"})")));
  EXPECT_TRUE(ok(client.request(R"({"op":"open","session":"run1"})")));
  // Duplicate open is an error response, not an exception.
  EXPECT_FALSE(ok(client.request(R"({"op":"open","session":"run1"})")));

  // Feed in two halves.
  const std::size_t half = bytes.size() / 2;
  std::vector<std::uint8_t> first(bytes.begin(),
                                  bytes.begin() + static_cast<std::ptrdiff_t>(half));
  std::vector<std::uint8_t> second(bytes.begin() + static_cast<std::ptrdiff_t>(half),
                                   bytes.end());
  EXPECT_TRUE(ok(client.request(
      traced::JsonWriter()
          .field("op", "feed")
          .field("session", "run1")
          .field("bytes", static_cast<std::uint64_t>(first.size()))
          .done(),
      first)));

  // Mid-run: status and a live render on the first half only.
  auto st = client.request(R"({"op":"status","session":"run1","sync":true})");
  EXPECT_TRUE(ok(st));
  EXPECT_EQ(st.str("phase"), "open");
  EXPECT_GT(st.num("records"), 0);
  auto rr = client.request(R"({"op":"render","session":"run1","width":700})");
  ASSERT_TRUE(ok(rr));
  EXPECT_NE(rr.str("svg").find("<svg"), std::string::npos);

  EXPECT_TRUE(ok(client.request(
      traced::JsonWriter()
          .field("op", "feed")
          .field("session", "run1")
          .field("bytes", static_cast<std::uint64_t>(second.size()))
          .done(),
      second)));
  st = client.request(R"({"op":"status","session":"run1","sync":true})");
  EXPECT_EQ(st.str("phase"), "complete");

  // Live queries on the full stream.
  auto q = client.request(
      R"({"op":"query","session":"run1","kind":"legend","sync":true})");
  ASSERT_TRUE(ok(q));
  EXPECT_FALSE(q.str("result").empty());
  q = client.request(R"({"op":"query","session":"run1","kind":"edges"})");
  ASSERT_TRUE(ok(q));
  q = client.request(R"({"op":"query","session":"run1","kind":"occupancy"})");
  ASSERT_TRUE(ok(q));
  EXPECT_FALSE(ok(client.request(
      R"({"op":"query","session":"run1","kind":"bogus"})")));

  // Finalize to disk; must equal the offline conversion bit for bit.
  const std::filesystem::path out = tmp.file("run1.slog2");
  auto fin = client.request(traced::JsonWriter()
                                .field("op", "finalize")
                                .field("session", "run1")
                                .field("out", out.string())
                                .done());
  ASSERT_TRUE(ok(fin));
  const auto offline =
      slog2::serialize(slog2::convert(clog2::parse(bytes), so.online.convert));
  EXPECT_EQ(util::read_file(out), offline);

  // Sessions list + close + fake-clock sweep.
  auto ls = client.request(R"({"op":"sessions"})");
  EXPECT_EQ(ls.num("count"), 1);
  EXPECT_TRUE(ok(client.request(R"({"op":"close","session":"run1"})")));
  EXPECT_FALSE(ok(client.request(R"({"op":"status","session":"run1"})")));
  EXPECT_TRUE(ok(client.request(
      R"({"op":"open","session":"tmp","now":10})")));
  auto sw = client.request(R"({"op":"sweep","now":500,"ttl":100})");
  ASSERT_TRUE(ok(sw));
  EXPECT_EQ(sw.num("evicted"), 1);
  EXPECT_EQ(sw.str("names"), "tmp");
  EXPECT_FALSE(ok(client.request(R"({"op":"unknown-op"})")));
}

// The live render's oracle: a File assembled from every committed drawable
// the converter hands out, serialized and reopened as a Navigator — the
// round trip pilot-traced once ran for each render.
slog2::File committed_file(traced::OnlineConverter& conv,
                           const traced::OnlineOptions& oo) {
  slog2::File f;
  f.nranks = conv.nranks();
  f.frame_size = oo.convert.frame_size;
  f.encoding = oo.convert.encoding;
  f.categories = conv.categories();
  slog2::detail::Collected items;
  const double inf = std::numeric_limits<double>::infinity();
  conv.visit_window(
      -inf, inf, [&](const slog2::StateDrawable& s) { items.states.push_back(s); },
      [&](const slog2::EventDrawable& e) { items.events.push_back(e); },
      [&](const slog2::ArrowDrawable& a) { items.arrows.push_back(a); });
  const bool any =
      !items.states.empty() || !items.events.empty() || !items.arrows.empty();
  slog2::detail::assemble(f, std::move(items), any, oo.convert, nullptr);
  return f;
}

TEST(Traced, LiveRenderMatchesSerializedPrefixOracle) {
  util::TempDir tmp("traced");
  const auto bytes = tracegen_bytes(12000, 5, 31);
  for (const auto enc : {slog2::FrameEncoding::kV1, slog2::FrameEncoding::kV2})
    for (const bool spill : {false, true})
      for (const std::uint64_t seal : {4U * 1024, 64U * 1024}) {
        const std::string label = util::strprintf(
            "%s, %s, seal %llu", slog2::to_string(enc), spill ? "spill" : "memory",
            static_cast<unsigned long long>(seal));
        traced::ServiceOptions so;
        so.workers = 1;
        so.online.seal_bytes = seal;
        so.online.max_disorder = 1e-6;  // sorted stream; admit eagerly
        so.online.convert.encoding = enc;
        if (spill) so.online.spill_dir = tmp.file("spill");
        traced::Service svc(so);
        ProtoClient client(svc);
        ASSERT_TRUE(client.request(R"({"op":"open","session":"live"})").boolean("ok"));

        // Before the stream header there is nothing to draw: a named error.
        const auto early = client.request(R"({"op":"render","session":"live"})");
        EXPECT_FALSE(early.boolean("ok")) << label;
        EXPECT_NE(early.str("error").find("no stream header"), std::string::npos)
            << label;

        std::size_t fed = 0;
        for (const std::size_t quarter : {1U, 2U, 3U}) {
          const std::size_t upto = bytes.size() * quarter / 4;
          const std::vector<std::uint8_t> part(
              bytes.begin() + static_cast<std::ptrdiff_t>(fed),
              bytes.begin() + static_cast<std::ptrdiff_t>(upto));
          fed = upto;
          ASSERT_TRUE(client
                          .request(traced::JsonWriter()
                                       .field("op", "feed")
                                       .field("session", "live")
                                       .field("bytes",
                                              static_cast<std::uint64_t>(part.size()))
                                       .done(),
                                   part)
                          .boolean("ok"));
          const auto st =
              client.request(R"({"op":"status","session":"live","sync":true})");
          ASSERT_EQ(st.str("phase"), "open") << label;

          slog2::File oracle;
          svc.sessions().find("live")->with_converter(
              [&](traced::OnlineConverter& conv) {
                oracle = committed_file(conv, so.online);
              });
          ASSERT_GT(oracle.stats.total_states, 0U) << label;
          slog2::Navigator nav(slog2::serialize(oracle));
          const double span = oracle.t_max - oracle.t_min;
          const double zooms[][2] = {{0.2, 1.0 / 16}, {0.6, 1.0 / 4}};
          for (int w = 0; w < 3; ++w) {
            jumpshot::RenderOptions ro;
            ro.width = 900;
            ro.title = "live: live";
            traced::JsonWriter req;
            req.field("op", "render")
                .field("session", "live")
                .field("width", std::int64_t{900});
            if (w > 0) {
              ro.t0 = oracle.t_min + zooms[w - 1][0] * span;
              ro.t1 = ro.t0 + zooms[w - 1][1] * span;
              req.field("t0", ro.t0).field("t1", ro.t1);
            }
            ASSERT_LE(nav.window_payload_bytes(
                          std::isnan(ro.t0) ? nav.t_min() : ro.t0,
                          std::isnan(ro.t1) ? nav.t_max() : ro.t1),
                      ro.lod_payload_budget)
                << label << ": the oracle would draw preview LOD";
            const auto rr = client.request(req.done());
            ASSERT_TRUE(rr.boolean("ok")) << label;
            EXPECT_EQ(rr.str("svg"), jumpshot::render_svg(nav, ro))
                << label << ", quarter " << quarter << ", window " << w;
          }
        }
      }
}

TEST(Traced, CommittedSpanMatchesAssembleWithSignedZeros) {
  // An event at +0.0 commits before a state that starts at -0.0. The shared
  // tail folds states before events, so its t_min is the state's -0.0; a
  // fold in commit order would pick the event's +0.0.
  traced::OnlineOptions oo;
  oo.max_disorder = 0.5;
  traced::OnlineConverter conv(oo);
  conv.begin(2);
  EXPECT_EQ(conv.committed_span(), (std::pair<double, double>{0.0, 0.0}));
  conv.push(clog2::StateDef{1, 10, 11, "Work", "red", ""});
  conv.push(clog2::EventDef{20, "Tick", "yellow", ""});
  conv.push(clog2::EventRec{-0.0, 0, 10, ""});
  conv.push(clog2::EventRec{0.0, 1, 20, ""});
  conv.push(clog2::EventRec{1.0, 0, 11, ""});
  conv.push(clog2::EventRec{3.0, 1, 20, ""});  // admits everything before 2.5
  const auto [lo, hi] = conv.committed_span();
  const slog2::File oracle = committed_file(conv, oo);
  ASSERT_EQ(oracle.stats.total_states, 1U);
  ASSERT_EQ(oracle.stats.total_events, 1U);
  EXPECT_EQ(lo, oracle.t_min);
  EXPECT_TRUE(std::signbit(lo)) << "t_min must be the state's -0.0";
  EXPECT_EQ(hi, oracle.t_max);
  EXPECT_EQ(hi, 1.0);
}

TEST(Traced, CorruptSpillChunkIsANamedError) {
  // Spill files sit on disk for the whole session; if one is overwritten,
  // the next decode must fail with the payload codec's named error, not
  // crash or hang, and must not disturb the other sessions.
  util::TempDir tmp("traced");
  const auto bad_bytes = tracegen_bytes(6000, 4, 41);
  const auto good_bytes = tracegen_bytes(6000, 4, 42);
  for (const auto enc : {slog2::FrameEncoding::kV1, slog2::FrameEncoding::kV2}) {
    const std::string label = slog2::to_string(enc);
    traced::ServiceOptions so;
    so.workers = 2;
    so.online.seal_bytes = 4 * 1024;
    so.online.max_disorder = 1e-6;  // sorted stream; admit eagerly
    so.online.convert.encoding = enc;
    so.online.spill_dir = tmp.file("spill-" + label);
    traced::Service svc(so);
    ProtoClient client(svc);
    auto feed = [&](const char* session, const std::vector<std::uint8_t>& bytes,
                    std::size_t n) {
      const std::vector<std::uint8_t> part(
          bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(n));
      return client
          .request(traced::JsonWriter()
                       .field("op", "feed")
                       .field("session", session)
                       .field("bytes", static_cast<std::uint64_t>(n))
                       .done(),
                   part)
          .boolean("ok");
    };
    ASSERT_TRUE(client.request(R"({"op":"open","session":"bad"})").boolean("ok"));
    ASSERT_TRUE(client.request(R"({"op":"open","session":"good"})").boolean("ok"));

    // Only "bad" has begun, so the spill directory holds its file alone.
    ASSERT_TRUE(feed("bad", bad_bytes, bad_bytes.size() / 2));
    const auto st = client.request(R"({"op":"status","session":"bad","sync":true})");
    ASSERT_GT(st.num("sealed_chunks"), 1) << label;
    std::vector<std::filesystem::path> spills;
    for (const auto& e : std::filesystem::directory_iterator(so.online.spill_dir))
      spills.push_back(e.path());
    ASSERT_EQ(spills.size(), 1U) << label;
    {
      std::fstream f(spills[0], std::ios::binary | std::ios::in | std::ios::out);
      const std::string junk(16, '\xff');
      f.write(junk.data(), static_cast<std::streamsize>(junk.size()));
      ASSERT_TRUE(f.good()) << label;
    }

    // Chunk 0 now opens with impossible counts: the v1 reader bounds them
    // by the bytes left, the v2 reader refuses a varint past 64 bits.
    const char* const named = enc == slog2::FrameEncoding::kV1
                                  ? "ByteReader: element count"
                                  : "varint:";
    for (const char* req :
         {R"({"op":"query","session":"bad","kind":"legend"})",
          R"({"op":"render","session":"bad"})",
          R"({"op":"query","session":"bad","kind":"edges"})",
          R"({"op":"render","session":"bad"})"}) {
      const auto r = client.request(req);
      EXPECT_FALSE(r.boolean("ok")) << label << ": " << req;
      EXPECT_NE(r.str("error").find(named), std::string::npos)
          << label << ": " << req << " -> " << r.str("error");
    }

    ASSERT_TRUE(feed("good", good_bytes, good_bytes.size()));
    ASSERT_EQ(client.request(R"({"op":"status","session":"good","sync":true})")
                  .str("phase"),
              "complete");
    const std::filesystem::path out = tmp.file("good-" + label + ".slog2");
    ASSERT_TRUE(client
                    .request(traced::JsonWriter()
                                 .field("op", "finalize")
                                 .field("session", "good")
                                 .field("out", out.string())
                                 .done())
                    .boolean("ok"));
    EXPECT_EQ(util::read_file(out),
              slog2::serialize(
                  slog2::convert(clog2::parse(good_bytes), so.online.convert)))
        << label;
  }
}

TEST(Traced, ServiceFailedStreamSurfacesError) {
  traced::ServiceOptions so;
  so.workers = 1;
  traced::Service svc(so);
  ProtoClient client(svc);
  ASSERT_TRUE(client.request(R"({"op":"open","session":"bad"})").boolean("ok"));
  std::vector<std::uint8_t> garbage(64, 0xAB);
  ASSERT_TRUE(client
                  .request(traced::JsonWriter()
                               .field("op", "feed")
                               .field("session", "bad")
                               .field("bytes", std::uint64_t{64})
                               .done(),
                           garbage)
                  .boolean("ok"));
  const auto st = client.request(R"({"op":"status","session":"bad","sync":true})");
  EXPECT_EQ(st.str("phase"), "failed");
  EXPECT_FALSE(st.str("error").empty());
  // Queries on a failed session are error responses.
  EXPECT_FALSE(client.request(R"({"op":"query","session":"bad","kind":"legend"})")
                   .boolean("ok"));
}

TEST(Traced, ServiceWarnsWhenFinalizeSealedNothing) {
  // A short trace under the default 50ms reorder window never seals a
  // chunk: the whole stream sat in memory and --seal silently did nothing.
  // finalize must say so — a "hint" field in the response plus one logger
  // line — without touching the warnings list (that stays byte-identical
  // to the offline conversion).
  const auto bytes = tracegen_bytes(3000, 4, 9);
  auto feed_and_finalize = [&](traced::OnlineOptions oo,
                               std::vector<std::string>* log) {
    traced::ServiceOptions so;
    so.workers = 1;
    so.online = oo;
    traced::Service svc(so);
    svc.set_logger([log](const std::string& msg) { log->push_back(msg); });
    ProtoClient client(svc);
    EXPECT_TRUE(client.request(R"({"op":"open","session":"r"})").boolean("ok"));
    EXPECT_TRUE(client
                    .request(traced::JsonWriter()
                                 .field("op", "feed")
                                 .field("session", "r")
                                 .field("bytes",
                                        static_cast<std::uint64_t>(bytes.size()))
                                 .done(),
                             bytes)
                    .boolean("ok"));
    (void)client.request(R"({"op":"status","session":"r","sync":true})");
    return client.request(R"({"op":"finalize","session":"r"})");
  };

  traced::OnlineOptions buffered;
  buffered.seal_bytes = 4 * 1024;  // would seal, if anything were admitted
  std::vector<std::string> log;
  const auto resp = feed_and_finalize(buffered, &log);
  ASSERT_TRUE(resp.boolean("ok"));
  ASSERT_TRUE(resp.has("hint"));
  EXPECT_NE(resp.str("hint").find("sealed 0 chunks"), std::string::npos);
  ASSERT_EQ(log.size(), 1U);
  EXPECT_NE(log[0].find("sealed 0 chunks"), std::string::npos);
  EXPECT_NE(log[0].find("--seal"), std::string::npos);

  // Same stream with a disorder bound matched to the trace's time scale:
  // chunks seal, and the hint must not appear.
  traced::OnlineOptions sealing = buffered;
  sealing.max_disorder = 1e-6;
  std::vector<std::string> log2;
  const auto resp2 = feed_and_finalize(sealing, &log2);
  ASSERT_TRUE(resp2.boolean("ok"));
  EXPECT_FALSE(resp2.has("hint"));
  EXPECT_TRUE(log2.empty());
}

TEST(TracedScale, MillionEventByteIdentityAcrossChunkSizes) {
  util::TempDir tmp("traced");
  const auto bytes = tracegen_bytes(1000000, 16, 42);
  const clog2::File parsed = clog2::parse(bytes);
  traced::OnlineOptions oo;
  oo.convert.threads = 4;
  oo.max_disorder = 1e-6;  // sorted stream; exercise steady-state sealing
  oo.spill_dir = tmp.file("spill");
  const slog2::File offline = slog2::convert(parsed, oo.convert);
  const auto offline_bytes = slog2::serialize(offline);
  for (const std::size_t chunk : {std::size_t{64} * 1024, std::size_t{1} << 20,
                                  bytes.size()}) {
    traced::OnlineUsage usage;
    const slog2::File online = online_convert(bytes, chunk, oo, nullptr, &usage);
    EXPECT_EQ(slog2::serialize(online), offline_bytes)
        << "chunk size " << chunk;
    // No full-trace buffering: the live set stays well below the trace.
    EXPECT_LT(usage.peak_live_bytes, bytes.size() / 4) << "chunk " << chunk;
  }
}

}  // namespace
