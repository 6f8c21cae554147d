// The paper's contribution: MPE/Jumpshot log integration inside Pilot.
//
// LogViz owns an mpe::Logger and the event/state IDs for every Pilot
// function that the visual design (Section III) displays:
//   * one state per I/O function call (red/green themes, dark shades for
//     collectives — see pi_colors.hpp), popup = source line, process name,
//     work-function index, bundle name for collectives;
//   * milestone bubbles: message arrival inside PI_Read (channel name),
//     write-side info (data length + first element), utility returns
//     (PI_ChannelHasData, PI_TrySelect, PI_Log, PI_StartTime, PI_EndTime);
//   * message arrows via MPE_Log_send / MPE_Log_receive pairs;
//   * the Configuration Phase (bisque) and Compute (gray) administrative
//     states.
//
// Popup texts start with literal text (e.g. "L42" not "%d ...") — the
// workaround the paper discovered for Jumpshot's substitution bug — and are
// capped at MPE's 40 bytes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mpe/mpe.hpp"
#include "pilot/entities.hpp"
#include "pilot/format.hpp"

namespace pilot {

struct CallSite {
  const char* file = "?";
  int line = 0;
};

class LogViz {
public:
  /// Defines every event/state ID against the logger options (colours from
  /// pi_colors.hpp).
  LogViz(mpisim::World& world, mpe::Logger::Options opts);

  mpe::Logger& logger() { return logger_; }

  struct StateIds {
    int start = 0;
    int end = 0;
  };

  // --- I/O function states ---------------------------------------------------
  /// Begin the state for an I/O function. `popup` example: "L42 P3 i1 B2".
  void begin_state(mpisim::Comm& comm, const StateIds& ids, const CallSite& site,
                   const Process& proc, const Bundle* bundle = nullptr);
  void end_state(mpisim::Comm& comm, const StateIds& ids, const std::string& info = {});

  // --- milestone bubbles -------------------------------------------------------
  /// Message-arrival bubble inside PI_Read (at the observed arrival time).
  void msg_arrive(mpisim::Comm& comm, double at_time, const Channel& chan);
  /// Write-side info bubble: element count and the first of the `count`
  /// values of `type` at `data`, rendered as printf renders that type.
  void write_info(mpisim::Comm& comm, const Channel& chan, std::size_t count,
                  ValueType type, const void* data);
  /// Utility-function bubble with its return value, rendered as
  /// printf("%.*f", prec, result).
  void utility(mpisim::Comm& comm, const char* func, const CallSite& site,
               double result, int prec = 0);
  /// PI_Log free-text bubble.
  void user_log(mpisim::Comm& comm, const CallSite& site, const std::string& text);
  /// "Wait" bubble logged at the entry of a blocking read-family call, one
  /// per awaited channel ("C3<-R2" = channel 3, writer rank 2). Only
  /// emitted under the analyze service (-pisvc=a); pilot-tracecheck builds
  /// the post-mortem wait-for graph from these.
  void wait_on(mpisim::Comm& comm, const Channel& chan);

  // --- administrative states ---------------------------------------------------
  /// Configuration Phase rectangle on rank 0 (bisque), logged retroactively
  /// at PI_StartAll with explicit timestamps.
  void configure_phase(mpisim::Comm& comm, double t_begin, double t_end);
  void begin_compute(mpisim::Comm& comm, const Process& proc);
  void end_compute(mpisim::Comm& comm);

  // --- arrows -------------------------------------------------------------------
  void arrow_send(mpisim::Comm& comm, int dst_rank, int tag, std::size_t bytes);
  void arrow_receive(mpisim::Comm& comm, double at_time, int src_rank, int tag,
                     std::size_t bytes);

  // --- custom user states (MPE's customized-logging API) --------------------
  /// Register a user state; returns its index for begin/end_user_state.
  int define_user_state(const std::string& name, const std::string& color);
  void begin_user_state(mpisim::Comm& comm, int index, const CallSite& site,
                        const Process& proc);
  void end_user_state(mpisim::Comm& comm, int index);
  [[nodiscard]] int user_state_count() const {
    return static_cast<int>(user_states_.size());
  }

  // State IDs per function (public so the runtime picks the right one).
  StateIds read_, write_, select_, broadcast_, scatter_, gather_, reduce_;
  StateIds configure_, compute_;
  std::vector<StateIds> user_states_;

private:
  int ev_msg_arrive_ = 0;
  int ev_write_info_ = 0;
  int ev_utility_ = 0;
  int ev_user_log_ = 0;
  int ev_wait_ = 0;
  mpe::Logger logger_;
};

/// "L42 P3 i1" / "L42 Decomp i2 B4" — the popup prefix for state starts.
std::string state_popup(const CallSite& site, const Process& proc,
                        const Bundle* bundle);

}  // namespace pilot
