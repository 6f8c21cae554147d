// Happens-before trace checker: synthetic CLOG-2 files for every TCxxx
// diagnostic (positive and negative), then real traces from the collision
// and thumbnail workloads — the checker must flag both buggy collision
// instances and stay silent on the fixed variant and on clean farm traces.
#include <gtest/gtest.h>

#include <string>

#include "analyze/tracecheck.hpp"
#include "mpe/mpe.hpp"
#include "pilot/pi.hpp"
#include "pilot/runtime.hpp"
#include "query/clocks.hpp"
#include "util/fs.hpp"
#include "workloads/collision_app.hpp"
#include "workloads/thumbnail_app.hpp"

namespace {

using analyze::Severity;

// --- synthetic-trace helpers -------------------------------------------------

clog2::File trace(int nranks) {
  clog2::File f;
  f.nranks = nranks;
  return f;
}

void send(clog2::File& f, double t, int from, int to, int tag) {
  clog2::MsgRec m;
  m.timestamp = t;
  m.rank = from;
  m.kind = clog2::MsgRec::Kind::kSend;
  m.partner = to;
  m.tag = tag;
  m.size = 4;
  f.records.emplace_back(m);
}

void recv(clog2::File& f, double t, int to, int from, int tag) {
  clog2::MsgRec m;
  m.timestamp = t;
  m.rank = to;
  m.kind = clog2::MsgRec::Kind::kRecv;
  m.partner = from;
  m.tag = tag;
  m.size = 4;
  f.records.emplace_back(m);
}

void def_state(clog2::File& f, int sid, int start_ev, int end_ev,
               const std::string& name) {
  clog2::StateDef sd;
  sd.state_id = sid;
  sd.start_event_id = start_ev;
  sd.end_event_id = end_ev;
  sd.name = name;
  sd.color = "red";
  f.records.emplace_back(sd);
}

void def_event(clog2::File& f, int id, const std::string& name) {
  clog2::EventDef ed;
  ed.event_id = id;
  ed.name = name;
  ed.color = "gray";
  f.records.emplace_back(ed);
}

void event(clog2::File& f, double t, int rank, int id,
           const std::string& text = {}) {
  clog2::EventRec ev;
  ev.timestamp = t;
  ev.rank = rank;
  ev.event_id = id;
  ev.text = text;
  f.records.emplace_back(ev);
}

/// One serialized query round-trip: main writes to `worker`, worker replies —
/// the Instance A pairing.
void paired_query(clog2::File& f, double& t, int worker) {
  send(f, t += 0.01, 0, worker, worker);       // main -> worker (down channel)
  recv(f, t += 0.01, worker, 0, worker);
  send(f, t += 0.01, worker, 0, 100 + worker); // worker -> main (up channel)
  recv(f, t += 0.01, 0, worker, 100 + worker);
}

// --- matching: TC101 / TC102 / TC103 / TC104 ---------------------------------

TEST(TraceCheck, EmptyTraceIsClean) {
  EXPECT_TRUE(analyze::check_trace(trace(0)).empty());
}

TEST(TraceCheck, MatchedPingPongIsClean) {
  auto f = trace(2);
  send(f, 0.1, 0, 1, 5);
  recv(f, 0.2, 1, 0, 5);
  send(f, 0.3, 1, 0, 6);
  recv(f, 0.4, 0, 1, 6);
  const auto rep = analyze::check_trace(f);
  EXPECT_TRUE(rep.empty()) << rep.to_text();
}

TEST(TraceCheck, UnreceivedSendIsTC101) {
  auto f = trace(2);
  send(f, 0.1, 0, 1, 5);
  send(f, 0.2, 0, 1, 5);
  const auto rep = analyze::check_trace(f);
  const auto diags = rep.with_id("TC101");
  ASSERT_EQ(diags.size(), 1u) << rep.to_text();
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  EXPECT_NE(diags[0].message.find("2 send(s)"), std::string::npos);
}

TEST(TraceCheck, ReceiveWithoutSendIsTC102) {
  auto f = trace(2);
  recv(f, 0.1, 1, 0, 5);
  const auto rep = analyze::check_trace(f);
  const auto diags = rep.with_id("TC102");
  ASSERT_EQ(diags.size(), 1u) << rep.to_text();
  EXPECT_EQ(diags[0].severity, Severity::kError);
  EXPECT_FALSE(rep.has("TC101"));
}

TEST(TraceCheck, ReceiveBeforeSendIsTC103) {
  auto f = trace(2);
  send(f, 1.0, 0, 1, 5);
  recv(f, 0.5, 1, 0, 5);  // matched, but timestamped before the send
  const auto rep = analyze::check_trace(f);
  ASSERT_TRUE(rep.has("TC103")) << rep.to_text();
  EXPECT_FALSE(rep.has("TC102"));
}

TEST(TraceCheck, NoCausalCycleFromAnyParseableTrace) {
  // A trace whose records are shuffled out of time order still matches
  // into an acyclic graph as long as each rank sends before it waits on
  // the reply: no causal cycle.
  auto f = trace(3);
  send(f, 0.9, 2, 0, 9);
  send(f, 0.1, 0, 1, 5);
  recv(f, 0.05, 0, 2, 9);
  recv(f, 0.8, 1, 0, 5);
  send(f, 0.2, 1, 2, 7);
  recv(f, 0.3, 2, 1, 7);
  EXPECT_FALSE(analyze::check_trace(f).has("TC104"));
}

TEST(TraceCheck, MatchedCycleIsTC104) {
  // Each rank receives from the other before sending to it. Matching pairs
  // each key's i-th send with its i-th receive, so both receives match and
  // the matched messages form a cycle: stamping must force them through.
  auto f = trace(2);
  recv(f, 0.10, 0, 1, 5);
  recv(f, 0.11, 1, 0, 5);
  send(f, 0.20, 0, 1, 5);
  send(f, 0.21, 1, 0, 5);

  query::MsgGraph g = query::match_messages(f);
  EXPECT_TRUE(query::stamp_clocks(g));
  std::size_t matched = 0;
  for (const query::MatchedMsg& m : g.msgs) {
    if (!m.matched) continue;
    ++matched;
    EXPECT_FALSE(m.recv_stamp.empty());
  }
  EXPECT_EQ(matched, 2u);

  const auto rep = analyze::check_trace(f);
  const auto diags = rep.with_id("TC104");
  ASSERT_EQ(diags.size(), 1u) << rep.to_text();
  EXPECT_EQ(diags[0].severity, Severity::kError);
}

// --- TC201: wildcard-receive race -------------------------------------------

TEST(TraceCheck, ConcurrentSendsToSameTagIsTC201) {
  auto f = trace(3);
  send(f, 0.1, 1, 0, 7);  // two causally unrelated sends, same destination
  send(f, 0.1, 2, 0, 7);  // and tag: a wildcard receive could match either
  recv(f, 0.2, 0, 1, 7);
  recv(f, 0.3, 0, 2, 7);
  const auto rep = analyze::check_trace(f);
  ASSERT_TRUE(rep.has("TC201")) << rep.to_text();
  EXPECT_EQ(rep.with_id("TC201")[0].severity, Severity::kWarning);
}

TEST(TraceCheck, CausallyOrderedSendsToSameTagAreClean) {
  auto f = trace(3);
  send(f, 0.1, 1, 0, 7);
  recv(f, 0.2, 0, 1, 7);
  send(f, 0.3, 0, 2, 3);  // rank 0 relays, so rank 2's send is ordered
  recv(f, 0.4, 2, 0, 3);
  send(f, 0.5, 2, 0, 7);
  recv(f, 0.6, 0, 2, 7);
  EXPECT_FALSE(analyze::check_trace(f).has("TC201"));
}

// --- TC202: serialized fan-in (Instance A shape) -----------------------------

TEST(TraceCheck, PairedQueryRoundsAreTC202) {
  auto f = trace(3);
  double t = 0.0;
  for (int round = 0; round < 2; ++round) {
    paired_query(f, t, 1);
    paired_query(f, t, 2);
  }
  const auto rep = analyze::check_trace(f);
  const auto diags = rep.with_id("TC202");
  ASSERT_EQ(diags.size(), 1u) << rep.to_text();
  EXPECT_EQ(diags[0].subject, "rank 0");
  EXPECT_NE(diags[0].message.find("2 of 2"), std::string::npos);
}

TEST(TraceCheck, ConcurrentFanInIsClean) {
  auto f = trace(3);
  double t = 0.0;
  for (int round = 0; round < 2; ++round) {
    // All queries out first, then all replies: worker sends are concurrent.
    send(f, t += 0.01, 0, 1, 1);
    send(f, t += 0.01, 0, 2, 2);
    recv(f, t += 0.01, 1, 0, 1);
    recv(f, t += 0.01, 2, 0, 2);
    send(f, t += 0.01, 1, 0, 101);
    send(f, t += 0.01, 2, 0, 102);
    recv(f, t += 0.01, 0, 1, 101);
    recv(f, t += 0.01, 0, 2, 102);
  }
  const auto rep = analyze::check_trace(f);
  EXPECT_FALSE(rep.has("TC202")) << rep.to_text();
}

TEST(TraceCheck, SingleSerializedRoundIsBelowThreshold) {
  auto f = trace(3);
  double t = 0.0;
  paired_query(f, t, 1);
  paired_query(f, t, 2);  // one serialized round; default minimum is two
  EXPECT_FALSE(analyze::check_trace(f).has("TC202"));
}

TEST(TraceCheck, DispatcherMediatedOrderIsNotTC202) {
  // A demand-driven farm: rank 0 dispatches work, workers send results to a
  // separate collector (rank 3). The collector's incoming sends are totally
  // ordered through the dispatcher, but the collector itself never gates
  // them — this must not look like Instance A.
  auto f = trace(4);
  double t = 0.0;
  for (int round = 0; round < 2; ++round) {
    for (int w = 1; w <= 2; ++w) {
      send(f, t += 0.01, 0, w, w);        // dispatch
      recv(f, t += 0.01, w, 0, w);
      send(f, t += 0.01, w, 3, 200 + w);  // result to collector
      recv(f, t += 0.01, 3, w, 200 + w);
      send(f, t += 0.01, w, 0, 100 + w);  // ready token back to dispatcher
      recv(f, t += 0.01, 0, w, 100 + w);
    }
  }
  const auto rep = analyze::check_trace(f);
  // Rank 3's rounds are serialized but not receiver-gated; rank 0's ready
  // fan-in *is* gated through its own dispatching, which is exactly the
  // write/read pairing of Instance A, so rank 0 may be flagged — the
  // collector must not be.
  for (const auto& d : rep.with_id("TC202")) EXPECT_NE(d.subject, "rank 3");
}

// --- TC401..TC404: state interval anomalies ----------------------------------

TEST(TraceCheck, EndWithoutStartIsTC401) {
  auto f = trace(1);
  def_state(f, 1, 10, 11, "PI_Write");
  event(f, 0.5, 0, 11);
  const auto rep = analyze::check_trace(f);
  ASSERT_TRUE(rep.has("TC401")) << rep.to_text();
  EXPECT_EQ(rep.with_id("TC401")[0].severity, Severity::kError);
}

TEST(TraceCheck, NegativeDurationIsTC402) {
  auto f = trace(1);
  def_state(f, 1, 10, 11, "PI_Write");
  event(f, 1.0, 0, 10);
  event(f, 0.5, 0, 11);
  ASSERT_TRUE(analyze::check_trace(f).has("TC402"));
}

TEST(TraceCheck, UnclosedStateIsTC403Note) {
  auto f = trace(1);
  def_state(f, 1, 10, 11, "PI_Write");
  event(f, 0.5, 0, 10);
  const auto rep = analyze::check_trace(f);
  ASSERT_TRUE(rep.has("TC403")) << rep.to_text();
  EXPECT_EQ(rep.with_id("TC403")[0].severity, Severity::kNote);
  EXPECT_EQ(rep.finding_count(), 0u);  // notes don't fail the exit status
}

TEST(TraceCheck, OverlappingInstancesAreTC404) {
  auto f = trace(1);
  def_state(f, 1, 10, 11, "PI_Write");
  event(f, 0.1, 0, 10);
  event(f, 0.2, 0, 10);  // re-entered while open
  event(f, 0.3, 0, 11);
  event(f, 0.4, 0, 11);
  const auto rep = analyze::check_trace(f);
  EXPECT_EQ(rep.with_id("TC404").size(), 1u) << rep.to_text();  // once per key
}

TEST(TraceCheck, WellNestedStatesAreClean) {
  auto f = trace(1);
  def_state(f, 1, 10, 11, "PI_Write");
  event(f, 0.1, 0, 10);
  event(f, 0.2, 0, 11);
  event(f, 0.3, 0, 10);
  event(f, 0.4, 0, 11);
  EXPECT_TRUE(analyze::check_trace(f).empty());
}

// --- TC203: majority-idle stall (Instance B shape) ---------------------------

/// Three participants; ranks 1 and 2 blocked in PI_Read for [0.1, 0.9] of a
/// one-second trace (threshold is 2 of 3).
clog2::File majority_stall_trace() {
  auto f = trace(3);
  def_state(f, 1, 10, 11, "PI_Read");
  event(f, 0.0, 0, 99);  // rank 0 participates but is never blocked
  event(f, 0.1, 1, 10);
  event(f, 0.1, 2, 10);
  event(f, 0.9, 1, 11);
  event(f, 0.9, 2, 11);
  event(f, 1.0, 0, 99);
  return f;
}

TEST(TraceCheck, MajorityBlockedIsTC203) {
  const auto rep = analyze::check_trace(majority_stall_trace());
  const auto diags = rep.with_id("TC203");
  ASSERT_EQ(diags.size(), 1u) << rep.to_text();
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  EXPECT_NE(diags[0].message.find("Instance B"), std::string::npos);
}

TEST(TraceCheck, MinorityBlockedIsClean) {
  auto f = trace(3);
  def_state(f, 1, 10, 11, "PI_Read");
  event(f, 0.0, 0, 99);
  event(f, 0.0, 2, 99);
  event(f, 0.1, 1, 10);  // only 1 of 3 blocked
  event(f, 0.9, 1, 11);
  event(f, 1.0, 0, 99);
  EXPECT_FALSE(analyze::check_trace(f).has("TC203"));
}

TEST(TraceCheck, ShortStallsAreClean) {
  auto f = trace(3);
  def_state(f, 1, 10, 11, "PI_Read");
  event(f, 0.0, 0, 99);
  event(f, 0.1, 1, 10);
  event(f, 0.1, 2, 10);
  event(f, 0.105, 1, 11);  // 5 ms majority stall in a 1 s trace
  event(f, 0.105, 2, 11);
  event(f, 1.0, 0, 99);
  EXPECT_FALSE(analyze::check_trace(f).has("TC203"));
}

TEST(TraceCheck, StallThresholdsAreTunable) {
  analyze::TraceCheckOptions opts;
  opts.stall_fraction = 0.95;  // the 80% stall no longer qualifies
  EXPECT_FALSE(analyze::check_trace(majority_stall_trace(), opts).has("TC203"));
}

// --- TC301: wait-for-graph cycle ---------------------------------------------

TEST(TraceCheck, TerminalWaitCycleIsTC301) {
  auto f = trace(3);
  def_event(f, 900, "Wait");
  event(f, 0.1, 1, 900, "C1<-R2");  // rank 1 waits on a channel written by 2
  event(f, 0.1, 2, 900, "C2<-R1");  // rank 2 waits on a channel written by 1
  const auto rep = analyze::check_trace(f);
  const auto diags = rep.with_id("TC301");
  ASSERT_EQ(diags.size(), 1u) << rep.to_text();
  EXPECT_EQ(diags[0].severity, Severity::kError);
  EXPECT_NE(diags[0].message.find("rank 1"), std::string::npos);
  EXPECT_NE(diags[0].message.find("rank 2"), std::string::npos);
}

TEST(TraceCheck, WaitOnLiveRankIsNotACycle) {
  auto f = trace(3);
  def_event(f, 900, "Wait");
  event(f, 0.1, 1, 900, "C1<-R0");  // rank 0 is not itself stuck
  EXPECT_FALSE(analyze::check_trace(f).has("TC301"));
}

TEST(TraceCheck, SatisfiedWaitIsNotTerminal) {
  auto f = trace(3);
  def_event(f, 900, "Wait");
  event(f, 0.1, 1, 900, "C1<-R2");
  event(f, 0.1, 2, 900, "C2<-R1");
  send(f, 0.2, 2, 1, 1);
  recv(f, 0.3, 1, 2, 1);  // rank 1's wait was served after all
  send(f, 0.4, 1, 2, 2);
  recv(f, 0.5, 2, 1, 2);
  EXPECT_FALSE(analyze::check_trace(f).has("TC301"));
}

// --- real traces: the paper's debugging assignment ---------------------------

namespace wc = workloads::collisions;
namespace wt = workloads::thumbnail;

/// Big enough (with -pisim-scale) that Instance B's serial parse shows up as
/// tens of milliseconds of majority-blocked trace time.
wc::AppConfig traced_collision(wc::Variant v, const util::TempDir& dir) {
  wc::AppConfig cfg;
  cfg.variant = v;
  cfg.workers = 3;
  cfg.records = 150000;
  cfg.query_rounds = 3;
  cfg.pilot_args = {"-piwatchdog=60", "-pisvc=j", "-pisim-scale=1.0",
                    "-piout=" + dir.path().string()};
  return cfg;
}

TEST(TraceCheckApp, InstanceAIsFlagged) {
  util::TempDir dir;
  const auto stats = wc::run_app(traced_collision(wc::Variant::kInstanceA, dir));
  ASSERT_FALSE(stats.run.aborted);
  const auto rep = analyze::check_trace(clog2::read_file(dir.file("pilot.clog2")));
  // The write/read pairing serializes every query round's fan-in on PI_MAIN.
  EXPECT_TRUE(rep.has("TC202")) << rep.to_text();
  EXPECT_GT(rep.finding_count(), 0u);
}

TEST(TraceCheckApp, InstanceBIsFlagged) {
  util::TempDir dir;
  const auto stats = wc::run_app(traced_collision(wc::Variant::kInstanceB, dir));
  ASSERT_FALSE(stats.run.aborted);
  const auto rep = analyze::check_trace(clog2::read_file(dir.file("pilot.clog2")));
  // All workers sit in PI_Read while PI_MAIN parses the whole file alone.
  EXPECT_TRUE(rep.has("TC203")) << rep.to_text();
  EXPECT_GT(rep.finding_count(), 0u);
}

TEST(TraceCheckApp, FixedVariantIsClean) {
  util::TempDir dir;
  const auto stats = wc::run_app(traced_collision(wc::Variant::kFixed, dir));
  ASSERT_FALSE(stats.run.aborted);
  const auto rep = analyze::check_trace(clog2::read_file(dir.file("pilot.clog2")));
  EXPECT_EQ(rep.finding_count(), 0u) << rep.to_text();
}

TEST(TraceCheckApp, ThumbnailFarmIsClean) {
  util::TempDir dir;
  wt::Config cfg;
  cfg.files = 12;
  cfg.workers = 3;
  cfg.image_size = 32;
  // Charge enough decode work (~0.2 s/image at sim-scale 1) that the trace
  // span is dominated by deterministic simulated compute, not by real
  // scheduling / logging overhead — otherwise a slow run (sanitizers, loaded
  // CI box) makes the startup phase look like a majority-idle stall.
  cfg.costs.decode_per_pixel = 200e-6;
  cfg.pilot_args = {"-piwatchdog=60", "-pisvc=j", "-pisim-scale=1.0",
                    "-piout=" + dir.path().string()};
  const auto stats = wt::run_app(cfg);
  ASSERT_FALSE(stats.run.aborted);
  const auto rep = analyze::check_trace(clog2::read_file(dir.file("pilot.clog2")));
  EXPECT_EQ(rep.finding_count(), 0u) << rep.to_text();
}

// --- cross-check against the runtime deadlock detector -----------------------

PI_CHANNEL* g_a_to_b = nullptr;
PI_CHANNEL* g_b_to_a = nullptr;

int cycle_reader_a(int, void*) {
  int v = 0;
  PI_Read(g_b_to_a, "%d", &v);
  PI_Write(g_a_to_b, "%d", 1);
  return 0;
}

int cycle_reader_b(int, void*) {
  int v = 0;
  PI_Read(g_a_to_b, "%d", &v);
  PI_Write(g_b_to_a, "%d", 2);
  return 0;
}

TEST(TraceCheckApp, SalvagedDeadlockTraceAgreesWithRuntimeDetector) {
  util::TempDir dir;
  const auto res = pilot::run(
      {"prog", "-pisvc=jad", "-pirobust", "-piout=" + dir.path().string(),
       "-piwatchdog=60"},
      [](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        PI_PROCESS* a = PI_CreateProcess(cycle_reader_a, 0, nullptr);
        PI_PROCESS* b = PI_CreateProcess(cycle_reader_b, 1, nullptr);
        g_a_to_b = PI_CreateChannel(a, b);
        g_b_to_a = PI_CreateChannel(b, a);
        PI_StartAll();
        PI_StopMain(0);
        return 0;
      });
  // The online detector (-pisvc=d) aborted the run...
  ASSERT_TRUE(res.aborted);
  ASSERT_TRUE(res.deadlock);

  // ...and the offline checker reaches the same verdict from the salvaged
  // spill, via the terminal Wait events the analyze service logged.
  const auto salvaged = mpe::salvage((dir.path() / "pilot").string());
  const auto rep = analyze::check_trace(salvaged);
  ASSERT_TRUE(rep.has("TC301")) << rep.to_text();
  EXPECT_EQ(rep.with_id("TC301")[0].severity, Severity::kError);
}

}  // namespace
