#include "digest/digest.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "query/slog2_rollup.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace digest {

namespace {

// --- deterministic sampling -------------------------------------------------

/// SplitMix64: the exemplar sampler's only randomness. Seeded from
/// Options::seed so the whole digest is a pure function of (trace, options).
struct SplitMix64 {
  std::uint64_t x;
  explicit SplitMix64(std::uint64_t seed) : x(seed) {}
  std::uint64_t next() {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
};

/// Reservoir of size one: the k-th candidate replaces the held one with
/// probability 1/k, so every candidate is equally likely regardless of how
/// many there are — without buffering them.
struct ExemplarSampler {
  SplitMix64 rng;
  std::uint64_t seen = 0;
  std::string held;
  explicit ExemplarSampler(std::uint64_t seed) : rng(seed) {}
  void offer(const std::string& text) {
    if (text.empty()) return;
    ++seen;
    if (rng.next() % seen == 0) held = text;
  }
};

// --- motif detection --------------------------------------------------------

/// Cap on the per-rank outermost-state sequence fed to the period scan;
/// beyond it the motif gets a "+N more" suffix instead of more symbols.
constexpr std::size_t kMaxMotifSequence = 4096;
constexpr std::size_t kMaxPeriod = 8;   ///< longest repeating block detected
constexpr std::size_t kMinRepeats = 3;  ///< shorter runs stay verbatim

std::string category_name(const slog2::Navigator& nav, std::int32_t id) {
  const slog2::Category* c = nav.category(id);
  if (c && !c->name.empty()) return c->name;
  return util::strprintf("cat%d", id);
}

/// Collapse a symbol sequence with greedy run/period detection: at each
/// position, the (period, repeats) pair covering the most symbols (repeats
/// >= kMinRepeats) is emitted as "(A B)xN"; otherwise one symbol passes
/// through. Greedy is not optimal compression, but it is deterministic,
/// linear-ish, and collapses the SPMD loops this exists for.
std::string collapse_motif(const std::vector<std::int32_t>& seq,
                           const std::map<std::int32_t, std::string>& names,
                           bool truncated_input) {
  const auto name_of = [&](std::int32_t id) -> const std::string& {
    return names.at(id);
  };
  std::string out;
  const auto emit = [&](const std::string& s) {
    if (!out.empty()) out.push_back(' ');
    out += s;
  };
  std::size_t i = 0;
  while (i < seq.size()) {
    std::size_t best_p = 0, best_k = 0;
    for (std::size_t p = 1; p <= kMaxPeriod && i + p <= seq.size(); ++p) {
      std::size_t k = 1;
      while (i + (k + 1) * p <= seq.size() &&
             std::equal(seq.begin() + static_cast<std::ptrdiff_t>(i),
                        seq.begin() + static_cast<std::ptrdiff_t>(i + p),
                        seq.begin() + static_cast<std::ptrdiff_t>(i + k * p)))
        ++k;
      if (k >= kMinRepeats && p * k > best_p * best_k) {
        best_p = p;
        best_k = k;
      }
    }
    if (best_k >= kMinRepeats) {
      std::string block;
      for (std::size_t j = 0; j < best_p; ++j) {
        if (j) block.push_back(' ');
        block += name_of(seq[i + j]);
      }
      emit(best_p == 1 ? util::strprintf("%s x%zu", block.c_str(), best_k)
                       : util::strprintf("(%s) x%zu", block.c_str(), best_k));
      i += best_p * best_k;
    } else {
      emit(name_of(seq[i]));
      ++i;
    }
  }
  if (truncated_input) emit("...");
  if (out.empty()) out = "(no states)";
  return out;
}

/// "0-3,7,9-10" for {0,1,2,3,7,9,10}.
std::string rank_ranges(const std::vector<std::int32_t>& ranks) {
  std::string out;
  std::size_t i = 0;
  while (i < ranks.size()) {
    std::size_t j = i;
    while (j + 1 < ranks.size() && ranks[j + 1] == ranks[j] + 1) ++j;
    if (!out.empty()) out.push_back(',');
    out += j > i ? util::strprintf("%d-%d", ranks[i], ranks[j])
                 : util::strprintf("%d", ranks[i]);
    i = j + 1;
  }
  return out;
}

// --- rendering --------------------------------------------------------------

/// Accepts whole lines until the next one (plus the truncation marker)
/// would overflow the budget; everything after the first rejection is
/// dropped. take() appends the marker iff anything was dropped, so the
/// result is always <= budget bytes.
class BudgetWriter {
 public:
  explicit BudgetWriter(std::size_t budget) : budget_(budget) {}

  void line(const std::string& s) {
    if (truncated_) return;
    static const std::size_t kMarker = sizeof("[truncated]\n") - 1;
    if (out_.size() + s.size() + 1 + kMarker > budget_) {
      truncated_ = true;
      return;
    }
    out_ += s;
    out_.push_back('\n');
  }

  [[nodiscard]] std::string take() {
    if (truncated_ && out_.size() + sizeof("[truncated]\n") - 1 <= budget_)
      out_ += "[truncated]\n";
    return std::move(out_);
  }

 private:
  std::size_t budget_;
  std::string out_;
  bool truncated_ = false;
};

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += util::strprintf("\\u%04x", c);
        else
          out.push_back(c);
    }
  }
  return out;
}

std::string fnum(double v) { return util::strprintf("%.9g", v); }

/// One JSON rendering with every list capped at `limit` items. render()
/// walks `limit` down until the document fits the budget.
std::string render_json(const Digest& d, std::size_t limit, bool truncated) {
  std::string j = "{";
  j += util::strprintf(
      "\"nranks\":%d,\"t_min\":%s,\"t_max\":%s,\"encoding\":\"%s\","
      "\"states\":%llu,\"events\":%llu,\"arrows\":%llu,\"clean\":%s",
      d.nranks, fnum(d.t_min).c_str(), fnum(d.t_max).c_str(),
      slog2::to_string(d.encoding),
      static_cast<unsigned long long>(d.states),
      static_cast<unsigned long long>(d.events),
      static_cast<unsigned long long>(d.arrows), d.clean ? "true" : "false");

  const auto cap = [&](std::size_t n) { return std::min(n, limit); };

  j += ",\"anomalies\":[";
  for (std::size_t i = 0; i < cap(d.anomalies.size()); ++i) {
    const Anomaly& a = d.anomalies[i];
    if (i) j.push_back(',');
    j += util::strprintf("{\"kind\":\"%s\",\"score\":%s,\"detail\":\"%s\"}",
                         a.kind.c_str(), fnum(a.score).c_str(),
                         json_escape(a.detail).c_str());
  }
  j += "],\"ranks\":[";
  for (std::size_t i = 0; i < cap(d.ranks.size()); ++i) {
    const RankRow& r = d.ranks[i];
    if (i) j.push_back(',');
    j += util::strprintf(
        "{\"rank\":%d,\"busy\":%s,\"states\":%llu,\"events\":%llu,"
        "\"out\":%llu,\"in\":%llu}",
        r.rank, fnum(r.busy).c_str(),
        static_cast<unsigned long long>(r.states),
        static_cast<unsigned long long>(r.events),
        static_cast<unsigned long long>(r.arrows_out),
        static_cast<unsigned long long>(r.arrows_in));
  }
  j += "],\"top_states\":[";
  for (std::size_t i = 0; i < cap(d.top_states.size()); ++i) {
    const StateRow& s = d.top_states[i];
    if (i) j.push_back(',');
    j += util::strprintf(
        "{\"name\":\"%s\",\"count\":%llu,\"inclusive\":%s,\"exclusive\":%s",
        json_escape(s.name).c_str(), static_cast<unsigned long long>(s.count),
        fnum(s.inclusive).c_str(), fnum(s.exclusive).c_str());
    if (!s.exemplar.empty())
      j += util::strprintf(",\"exemplar\":\"%s\"",
                           json_escape(s.exemplar).c_str());
    j.push_back('}');
  }
  j += "],\"edges\":[";
  for (std::size_t i = 0; i < cap(d.edges.size()); ++i) {
    const EdgeRow& e = d.edges[i];
    if (i) j.push_back(',');
    j += util::strprintf(
        "{\"src\":%d,\"dst\":%d,\"count\":%llu,\"bytes\":%llu,"
        "\"mean_latency\":%s}",
        e.src, e.dst, static_cast<unsigned long long>(e.count),
        static_cast<unsigned long long>(e.bytes),
        fnum(e.mean_latency).c_str());
  }
  j += "],\"motifs\":[";
  for (std::size_t i = 0; i < cap(d.motifs.size()); ++i) {
    const MotifRow& m = d.motifs[i];
    if (i) j.push_back(',');
    j += util::strprintf("{\"ranks\":\"%s\",\"states\":%llu,\"motif\":\"%s\"}",
                         rank_ranges(m.ranks).c_str(),
                         static_cast<unsigned long long>(m.states),
                         json_escape(m.motif).c_str());
  }
  j += util::strprintf("],\"truncated\":%s}", truncated ? "true" : "false");
  return j;
}

}  // namespace

Digest analyze(slog2::Navigator& nav, const Options& opts) {
  Digest d;
  d.nranks = nav.nranks();
  d.t_min = nav.t_min();
  d.t_max = nav.t_max();
  d.encoding = nav.encoding();
  d.clean = nav.stats().clean();

  const double a = std::max(opts.t0, -std::numeric_limits<double>::max());
  const double b = std::min(opts.t1, std::numeric_limits<double>::max());

  query::LegendSweep sweep;
  query::WindowOccupancy occ(d.nranks, a, b);
  std::map<std::int32_t, ExemplarSampler> exemplars;
  // (rank) -> outermost states ordered (start_time, category) for motifs.
  // A frame's states are time-ordered, but different frames interleave, so
  // the (time, cat) key is collected and sorted per rank afterwards.
  std::map<std::int32_t, std::vector<std::pair<double, std::int32_t>>> seqs;
  std::map<std::int32_t, std::uint64_t> seq_total;  // incl. beyond the cap
  std::map<std::pair<std::int32_t, std::int32_t>, EdgeRow> edges;
  std::vector<double> latencies_scratch;

  // One serial visit: the callbacks below fire in the walk's frame order,
  // the same feed File::visit_window gives.
  nav.visit_window(
      a, b,
      [&](const slog2::StateDrawable& s) {
        sweep.add_state(s);
        occ.add_state(s);
        ++d.states;
        auto it = exemplars.find(s.category_id);
        if (it == exemplars.end())
          it = exemplars
                   .emplace(s.category_id,
                            ExemplarSampler(opts.seed ^
                                            static_cast<std::uint64_t>(
                                                s.category_id)))
                   .first;
        it->second.offer(s.start_text);
        it->second.offer(s.end_text);
        if (s.depth == 0 && s.rank >= 0) {
          ++seq_total[s.rank];
          auto& seq = seqs[s.rank];
          if (seq.size() < kMaxMotifSequence)
            seq.emplace_back(s.start_time, s.category_id);
        }
      },
      [&](const slog2::EventDrawable& e) {
        sweep.add_event(e);
        occ.add_event(e);
        ++d.events;
      },
      [&](const slog2::ArrowDrawable& ar) {
        sweep.add_arrow(ar);
        occ.add_arrow(ar);
        ++d.arrows;
        EdgeRow& e = edges[{ar.src_rank, ar.dst_rank}];
        e.src = ar.src_rank;
        e.dst = ar.dst_rank;
        ++e.count;
        e.bytes += ar.size;
        e.mean_latency += ar.end_time - ar.start_time;  // sum; divided below
      });

  // Rank table.
  std::int32_t rank = 0;
  for (const auto& r : occ.ranks()) {
    RankRow row;
    row.rank = rank++;
    for (const auto& kv : r.state_time) row.busy += kv.second;
    for (const auto& kv : r.state_count) row.states += kv.second;
    for (const auto& kv : r.event_count) row.events += kv.second;
    row.arrows_out = r.arrows_out;
    row.arrows_in = r.arrows_in;
    d.ranks.push_back(row);
  }

  // Top states by inclusive time (stable tie-break on category id).
  for (const auto& [cat, tot] : sweep.totals(opts.threads)) {
    const slog2::Category* c = nav.category(cat);
    if (!c || c->kind != slog2::CategoryKind::kState) continue;
    StateRow row;
    row.category_id = cat;
    row.name = category_name(nav, cat);
    row.count = tot.count;
    row.inclusive = tot.inclusive;
    row.exclusive = tot.exclusive;
    const auto ex = exemplars.find(cat);
    if (ex != exemplars.end()) row.exemplar = ex->second.held;
    d.top_states.push_back(std::move(row));
  }
  std::sort(d.top_states.begin(), d.top_states.end(),
            [](const StateRow& x, const StateRow& y) {
              if (x.inclusive != y.inclusive) return x.inclusive > y.inclusive;
              return x.category_id < y.category_id;
            });

  // Edges by count (tie-break (src, dst)); the latency sum becomes a mean.
  for (auto& [key, e] : edges) {
    e.mean_latency = e.count ? e.mean_latency / static_cast<double>(e.count) : 0.0;
    d.edges.push_back(e);
  }
  std::sort(d.edges.begin(), d.edges.end(),
            [](const EdgeRow& x, const EdgeRow& y) {
              if (x.count != y.count) return x.count > y.count;
              if (x.src != y.src) return x.src < y.src;
              return x.dst < y.dst;
            });

  // Motifs: collapse each rank's sequence, then dedup identical strings
  // into rank groups (SPMD ranks collapse to one line). The per-rank sort +
  // period scans shard across workers (the digest's hot loop on wide
  // traces); names are resolved up front and the grouping walks ranks in
  // ascending order, so the result is exactly the serial one.
  {
    std::map<std::int32_t, std::string> names;
    for (const auto& [r, seq] : seqs)
      for (const auto& [t, c] : seq)
        if (!names.count(c)) names[c] = category_name(nav, c);

    std::vector<std::int32_t> motif_ranks;
    std::vector<std::vector<std::pair<double, std::int32_t>>*> rank_seqs;
    motif_ranks.reserve(seqs.size());
    rank_seqs.reserve(seqs.size());
    for (auto& [r, seq] : seqs) {
      motif_ranks.push_back(r);
      rank_seqs.push_back(&seq);
    }
    std::vector<std::string> motifs(rank_seqs.size());
    util::parallel_for(
        rank_seqs.size(), util::resolve_threads(opts.threads),
        [&](std::size_t k) {
          auto& seq = *rank_seqs[k];
          std::sort(seq.begin(), seq.end());
          std::vector<std::int32_t> cats;
          cats.reserve(seq.size());
          for (const auto& [t, c] : seq) cats.push_back(c);
          const std::uint64_t total = seq_total.find(motif_ranks[k])->second;
          motifs[k] = collapse_motif(cats, names, total > kMaxMotifSequence);
        });

    std::map<std::string, MotifRow> groups;
    for (std::size_t k = 0; k < rank_seqs.size(); ++k) {
      MotifRow& g = groups[motifs[k]];
      if (g.ranks.empty()) {
        g.motif = std::move(motifs[k]);
        g.states = seq_total.find(motif_ranks[k])->second;
      }
      g.ranks.push_back(motif_ranks[k]);
    }
    for (auto& [m, g] : groups) d.motifs.push_back(std::move(g));
    std::sort(d.motifs.begin(), d.motifs.end(),
              [](const MotifRow& x, const MotifRow& y) {
                return x.ranks.front() < y.ranks.front();
              });
  }

  // Anomalies: rank busy skew against the mean...
  if (d.nranks >= 2) {
    double mean = 0.0;
    for (const RankRow& r : d.ranks) mean += r.busy;
    mean /= static_cast<double>(d.nranks);
    if (mean > 0.0) {
      for (const RankRow& r : d.ranks) {
        if (r.busy >= opts.skew_threshold * mean) {
          d.anomalies.push_back(
              {"rank_busy_high", r.busy / mean,
               util::strprintf("rank %d busy %ss vs mean %ss (%.2fx)", r.rank,
                               fnum(r.busy).c_str(), fnum(mean).c_str(),
                               r.busy / mean)});
        } else if (r.busy * opts.skew_threshold <= mean) {
          const double score = mean / std::max(r.busy, 1e-12);
          d.anomalies.push_back(
              {"rank_busy_low", score,
               util::strprintf("rank %d busy %ss vs mean %ss", r.rank,
                               fnum(r.busy).c_str(), fnum(mean).c_str())});
        }
      }
    }
  }
  // ...and edge mean latency against the median edge.
  if (d.edges.size() >= 2) {
    latencies_scratch.clear();
    for (const EdgeRow& e : d.edges) latencies_scratch.push_back(e.mean_latency);
    std::sort(latencies_scratch.begin(), latencies_scratch.end());
    const double median = latencies_scratch[latencies_scratch.size() / 2];
    if (median > 0.0) {
      for (const EdgeRow& e : d.edges) {
        if (e.mean_latency >= opts.latency_threshold * median) {
          d.anomalies.push_back(
              {"edge_latency", e.mean_latency / median,
               util::strprintf(
                   "edge %d->%d mean latency %ss vs median %ss (%.2fx)",
                   e.src, e.dst, fnum(e.mean_latency).c_str(),
                   fnum(median).c_str(), e.mean_latency / median)});
        }
      }
    }
  }
  std::sort(d.anomalies.begin(), d.anomalies.end(),
            [](const Anomaly& x, const Anomaly& y) {
              if (x.score != y.score) return x.score > y.score;
              if (x.kind != y.kind) return x.kind < y.kind;
              return x.detail < y.detail;
            });

  return d;
}

std::string render(const Digest& d, const Options& opts) {
  if (opts.json) {
    // Walk the per-list cap down until the document fits. limit==lists'
    // max size first, so an ample budget gets the full digest.
    std::size_t max_list = std::max(
        {d.anomalies.size(), d.ranks.size(), d.top_states.size(),
         d.edges.size(), d.motifs.size()});
    for (;;) {
      const std::string j = render_json(d, max_list, false);
      if (j.size() <= opts.budget) return j;
      break;  // needs truncation
    }
    for (std::size_t limit : {std::size_t{64}, std::size_t{32}, std::size_t{16},
                              std::size_t{8}, std::size_t{4}, std::size_t{2},
                              std::size_t{1}, std::size_t{0}}) {
      if (limit >= max_list && limit != 0) continue;
      const std::string j = render_json(d, limit, true);
      if (j.size() <= opts.budget) return j;
    }
    if (opts.budget >= 2) return "{}";
    return "";
  }

  BudgetWriter w(opts.budget);
  w.line(util::strprintf(
      "digest: %d ranks, window [%s, %s]s, %llu states / %llu events / "
      "%llu arrows (%s payloads, %s)",
      d.nranks, fnum(d.t_min).c_str(), fnum(d.t_max).c_str(),
      static_cast<unsigned long long>(d.states),
      static_cast<unsigned long long>(d.events),
      static_cast<unsigned long long>(d.arrows), slog2::to_string(d.encoding),
      d.clean ? "clean" : "NOT CLEAN"));

  if (d.anomalies.empty()) {
    w.line("anomalies: none");
  } else {
    w.line(util::strprintf("anomalies (%zu):", d.anomalies.size()));
    for (const Anomaly& a : d.anomalies)
      w.line(util::strprintf("  [%s] %s", a.kind.c_str(), a.detail.c_str()));
  }

  w.line("ranks:");
  for (const RankRow& r : d.ranks)
    w.line(util::strprintf(
        "  %6d busy %ss, %llu states, %llu events, %llu out / %llu in",
        r.rank, fnum(r.busy).c_str(), static_cast<unsigned long long>(r.states),
        static_cast<unsigned long long>(r.events),
        static_cast<unsigned long long>(r.arrows_out),
        static_cast<unsigned long long>(r.arrows_in)));

  w.line("states by inclusive time:");
  for (const StateRow& s : d.top_states) {
    std::string line = util::strprintf(
        "  %s: %llu, incl %ss, excl %ss", s.name.c_str(),
        static_cast<unsigned long long>(s.count), fnum(s.inclusive).c_str(),
        fnum(s.exclusive).c_str());
    if (!s.exemplar.empty())
      line += util::strprintf(", e.g. \"%s\"", s.exemplar.c_str());
    w.line(line);
  }

  w.line("edges by message count:");
  for (const EdgeRow& e : d.edges)
    w.line(util::strprintf(
        "  %d->%d: %llu msgs, %llu bytes, mean latency %ss", e.src, e.dst,
        static_cast<unsigned long long>(e.count),
        static_cast<unsigned long long>(e.bytes),
        fnum(e.mean_latency).c_str()));

  w.line("motifs (outermost states per rank):");
  for (const MotifRow& m : d.motifs)
    w.line(util::strprintf("  ranks %s: %s",
                           rank_ranges(m.ranks).c_str(), m.motif.c_str()));

  return w.take();
}

std::string summarize(slog2::Navigator& nav, const Options& opts) {
  return render(analyze(nav, opts), opts);
}

}  // namespace digest
