// The record-level oracle for mpe::merge_streams: the k-way merge as it ran
// over decoded clog2::Record vectors before the logger kept its records in
// wire form. tests/pipeline_scale_test.cpp and bench/bench_pipeline_scale.cpp
// hold the encoded merge to it byte for byte.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "clog2/clog2.hpp"
#include "mpe/mpe.hpp"
#include "util/bytebuf.hpp"

namespace merge_oracle {

/// Timestamp of a timed record (EventRec/MsgRec); definition records carry
/// no clock and sort as 0.
inline double record_time(const clog2::Record& rec) {
  if (const auto* e = std::get_if<clog2::EventRec>(&rec)) return e->timestamp;
  if (const auto* m = std::get_if<clog2::MsgRec>(&rec)) return m->timestamp;
  return 0.0;
}

/// K-way time-merge of decoded per-stream records: a stream that is not
/// time-ordered is stable-sorted first, then a heap over one cursor per
/// stream pops the smallest (time, stream index).
inline std::vector<clog2::Record> merge_timed(
    std::vector<std::vector<clog2::Record>> streams) {
  std::size_t total = 0;
  for (auto& s : streams) {
    total += s.size();
    bool sorted = true;
    for (std::size_t i = 1; i < s.size(); ++i)
      if (record_time(s[i]) < record_time(s[i - 1])) {
        sorted = false;
        break;
      }
    if (!sorted)
      std::stable_sort(s.begin(), s.end(), [](const auto& a, const auto& b) {
        return record_time(a) < record_time(b);
      });
  }

  std::vector<clog2::Record> out;
  out.reserve(total);
  struct Cursor {
    double t;
    std::size_t stream;
    std::size_t pos;
  };
  auto later = [](const Cursor& a, const Cursor& b) {
    if (a.t != b.t) return a.t > b.t;
    return a.stream > b.stream;
  };
  std::vector<Cursor> heap;
  for (std::size_t s = 0; s < streams.size(); ++s)
    if (!streams[s].empty()) heap.push_back(Cursor{record_time(streams[s][0]), s, 0});
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Cursor cur = heap.back();
    heap.pop_back();
    auto& stream = streams[cur.stream];
    out.emplace_back(std::move(stream[cur.pos]));
    if (cur.pos + 1 < stream.size()) {
      heap.push_back(Cursor{record_time(stream[cur.pos + 1]), cur.stream, cur.pos + 1});
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  return out;
}

/// Encode decoded per-stream records into the wire streams
/// mpe::merge_streams takes.
inline std::vector<mpe::WireStream> encode_streams(
    const std::vector<std::vector<clog2::Record>>& streams) {
  std::vector<mpe::WireStream> out(streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    util::ByteWriter w;
    for (const auto& rec : streams[s]) {
      out[s].starts.push_back(w.size());
      clog2::append_record(w, rec);
    }
    out[s].bytes = w.take();
  }
  return out;
}

/// Bytes of the records, in order, in their wire form.
inline std::vector<std::uint8_t> encode_records(const std::vector<clog2::Record>& records) {
  util::ByteWriter w;
  for (const auto& rec : records) clog2::append_record(w, rec);
  return w.take();
}

/// mpe::merge_streams over the encoded streams.
inline std::vector<std::uint8_t> merge_encoded(
    const std::vector<std::vector<clog2::Record>>& streams) {
  util::ByteWriter w;
  mpe::merge_streams(encode_streams(streams), w);
  return w.take();
}

}  // namespace merge_oracle
