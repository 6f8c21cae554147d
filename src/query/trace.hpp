// pilot-query: a reusable trace-analysis core shared by pilot-tracecheck,
// pilot-tracediff, and the jumpshot statistics pass — one event-iteration
// engine instead of three ad-hoc loops (the Pipit argument: analyses
// should sit on a scripted query layer over events, not re-walk raw
// records).
//
// Trace is a typed, indexed view over a parsed CLOG-2 file: the definition
// tables are resolved up front (event id -> state kind, state id -> name,
// the -pisvc=a "Wait" event), the timestamped records are flattened into a
// uniform Step vector in merged-stream order, and per-rank step index lists
// are prebuilt. Everything holds pointers into the source clog2::File, so a
// Trace is cheap and the File must outlive it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "clog2/clog2.hpp"

namespace query {

enum class StepKind : std::uint8_t { kEvent, kSend, kRecv, kSync };

/// One timestamped record in the merged stream, with the variant flattened.
struct Step {
  double time = 0.0;
  std::int32_t rank = 0;
  StepKind kind = StepKind::kEvent;
  // Event fields (kEvent).
  std::int32_t event_id = 0;
  const std::string* text = nullptr;  ///< popup payload; never null for events
  // Message fields (kSend / kRecv).
  std::int32_t partner = 0;
  std::int32_t tag = 0;
  std::uint32_t size = 0;

  [[nodiscard]] bool is_msg() const {
    return kind == StepKind::kSend || kind == StepKind::kRecv;
  }
};

/// What an event id means when it belongs to a StateDef.
struct StateEvent {
  std::int32_t state_id = 0;
  std::string name;
  bool is_start = false;
};

class Trace {
 public:
  /// Indexes `file`; the file must outlive the Trace. The record flatten,
  /// the per-rank index fill, and the rank scan are sharded across
  /// `threads` workers (0 = one per hardware thread). Shards are fixed-size
  /// record chunks — boundaries depend on the data, never on the worker
  /// count — and commit into preallocated slots, so the Trace is identical
  /// bit for bit at any thread count.
  explicit Trace(const clog2::File& file, int threads = 1);

  [[nodiscard]] const clog2::File& file() const { return *file_; }
  /// Rank count actually observed (max of the header and the records).
  [[nodiscard]] int nranks() const { return nranks_; }

  /// All timestamped records (events, message halves, syncs) in merged
  /// stream order; definitions are excluded.
  [[nodiscard]] const std::vector<Step>& steps() const { return steps_; }
  /// Per-rank step indices, in stream order (== per-rank program order).
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& by_rank() const {
    return by_rank_;
  }

  // --- definition lookups ---------------------------------------------------
  /// Non-null when `event_id` is the start or end event of a StateDef.
  [[nodiscard]] const StateEvent* state_event(std::int32_t event_id) const;
  [[nodiscard]] const std::string* state_name(std::int32_t state_id) const;
  [[nodiscard]] const std::map<std::int32_t, StateEvent>& state_events() const {
    return state_events_;
  }
  [[nodiscard]] const std::map<std::int32_t, std::string>& state_names() const {
    return state_names_;
  }
  /// Id of the solo EventDef with this name ("Wait", "Arrival", ...).
  [[nodiscard]] std::optional<std::int32_t> event_id_of(
      const std::string& name) const;

  // --- time span ------------------------------------------------------------
  [[nodiscard]] bool has_span() const { return have_span_; }
  [[nodiscard]] double t_min() const { return t_min_; }
  [[nodiscard]] double t_max() const { return t_max_; }

 private:
  const clog2::File* file_;
  int nranks_ = 0;
  std::vector<Step> steps_;
  std::vector<std::vector<std::size_t>> by_rank_;
  std::map<std::int32_t, StateEvent> state_events_;
  std::map<std::int32_t, std::string> state_names_;
  std::map<std::string, std::int32_t> solo_event_ids_;
  bool have_span_ = false;
  double t_min_ = 0.0;
  double t_max_ = 0.0;
};

}  // namespace query
