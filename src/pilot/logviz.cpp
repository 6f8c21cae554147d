#include "pilot/logviz.hpp"

#include <cstring>
#include <filesystem>

#include "pilot/pi_colors.hpp"
#include "util/strings.hpp"

namespace pilot {

std::string state_popup(const CallSite& site, const Process& proc,
                        const Bundle* bundle) {
  // Starts with literal text (the paper's Jumpshot workaround) and stays
  // within MPE's 40-byte cap: "L<line> <proc> i<index> [B<bundle>]".
  std::string out;
  util::append_all(out, "L", site.line, " ", proc.name, " i", proc.index);
  if (bundle != nullptr) util::append_all(out, " ", bundle->name);
  return out;
}

namespace {

template <typename T>
T load(const void* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// The first element of a write, as printf renders its type ("-" when there
// is none).
void append_first_value(std::string& out, std::size_t count, ValueType type,
                        const void* p) {
  if (count == 0 || p == nullptr) {
    out += '-';
    return;
  }
  switch (type) {
    case ValueType::kChar: return util::append_int(out, static_cast<int>(load<char>(p)));
    case ValueType::kInt: return util::append_int(out, load<int>(p));
    case ValueType::kUnsigned: return util::append_int(out, load<unsigned>(p));
    case ValueType::kLong: return util::append_int(out, load<long>(p));
    case ValueType::kUnsignedLong: return util::append_int(out, load<unsigned long>(p));
    case ValueType::kLongLong: return util::append_int(out, load<long long>(p));
    case ValueType::kUnsignedLongLong:
      return util::append_int(out, load<unsigned long long>(p));
    case ValueType::kFloat:
      return util::append_general(out, static_cast<double>(load<float>(p)), 6);
    case ValueType::kDouble: return util::append_general(out, load<double>(p), 6);
    case ValueType::kBytes: {
      constexpr char kHex[] = "0123456789abcdef";
      const auto v = load<unsigned char>(p);
      const char hex[] = {'0', 'x', kHex[v >> 4], kHex[v & 0xF], '\0'};
      return util::append_all(out, hex);
    }
  }
  out += '?';
}

}  // namespace

LogViz::LogViz(mpisim::World& world, mpe::Logger::Options opts)
    : logger_(world, std::move(opts)) {
  auto define_state = [&](const char* name, const char* color) {
    StateIds ids;
    ids.start = logger_.get_event_number();
    ids.end = logger_.get_event_number();
    logger_.define_state(ids.start, ids.end, name, color);
    return ids;
  };
  read_ = define_state("PI_Read", PI_COLOR_READ);
  write_ = define_state("PI_Write", PI_COLOR_WRITE);
  select_ = define_state("PI_Select", PI_COLOR_SELECT);
  broadcast_ = define_state("PI_Broadcast", PI_COLOR_BROADCAST);
  scatter_ = define_state("PI_Scatter", PI_COLOR_SCATTER);
  gather_ = define_state("PI_Gather", PI_COLOR_GATHER);
  reduce_ = define_state("PI_Reduce", PI_COLOR_REDUCE);
  configure_ = define_state("PI_Configure", PI_COLOR_CONFIGURE);
  compute_ = define_state("Compute", PI_COLOR_COMPUTE);

  ev_msg_arrive_ = logger_.get_event_number();
  logger_.define_event(ev_msg_arrive_, "MsgArrive", PI_COLOR_BUBBLE);
  ev_write_info_ = logger_.get_event_number();
  logger_.define_event(ev_write_info_, "WriteInfo", PI_COLOR_BUBBLE);
  ev_utility_ = logger_.get_event_number();
  logger_.define_event(ev_utility_, "Utility", PI_COLOR_UTILITY);
  ev_user_log_ = logger_.get_event_number();
  logger_.define_event(ev_user_log_, "PI_Log", PI_COLOR_UTILITY);
  ev_wait_ = logger_.get_event_number();
  logger_.define_event(ev_wait_, "Wait", PI_COLOR_UTILITY);
}

int LogViz::define_user_state(const std::string& name, const std::string& color) {
  StateIds ids;
  ids.start = logger_.get_event_number();
  ids.end = logger_.get_event_number();
  logger_.define_state(ids.start, ids.end, name, color);
  user_states_.push_back(ids);
  return static_cast<int>(user_states_.size()) - 1;
}

void LogViz::begin_user_state(mpisim::Comm& comm, int index, const CallSite& site,
                              const Process& proc) {
  logger_.log_event(comm, user_states_.at(static_cast<std::size_t>(index)).start,
                    state_popup(site, proc, nullptr));
}

void LogViz::end_user_state(mpisim::Comm& comm, int index) {
  logger_.log_event(comm, user_states_.at(static_cast<std::size_t>(index)).end);
}

void LogViz::begin_state(mpisim::Comm& comm, const StateIds& ids,
                         const CallSite& site, const Process& proc,
                         const Bundle* bundle) {
  logger_.log_event(comm, ids.start, state_popup(site, proc, bundle));
}

void LogViz::end_state(mpisim::Comm& comm, const StateIds& ids,
                       const std::string& info) {
  logger_.log_event(comm, ids.end, info);
}

void LogViz::msg_arrive(mpisim::Comm& comm, double at_time, const Channel& chan) {
  logger_.log_event_at(comm, at_time, ev_msg_arrive_, "Chan: " + chan.name);
}

void LogViz::write_info(mpisim::Comm& comm, const Channel& chan, std::size_t count,
                        ValueType type, const void* data) {
  std::string text;
  util::append_all(text, "Chan: ", chan.name, " n=", count, " v0=");
  append_first_value(text, count, type, data);
  logger_.log_event(comm, ev_write_info_, text);
}

void LogViz::utility(mpisim::Comm& comm, const char* func, const CallSite& site,
                     double result, int prec) {
  // Compact: MPE caps popup text at 40 bytes, and function names like
  // PI_ChannelHasData are long already.
  std::string text;
  util::append_all(text, func, " L", site.line, " ret=");
  util::append_fixed(text, result, prec);
  logger_.log_event(comm, ev_utility_, text);
}

void LogViz::user_log(mpisim::Comm& comm, const CallSite& site,
                      const std::string& text) {
  std::string popup;
  util::append_all(popup, "L", site.line, " ", text);
  logger_.log_event(comm, ev_user_log_, popup);
}

void LogViz::wait_on(mpisim::Comm& comm, const Channel& chan) {
  std::string text;
  util::append_all(text, "C", chan.id, "<-R", chan.from->rank);
  logger_.log_event(comm, ev_wait_, text);
}

void LogViz::configure_phase(mpisim::Comm& comm, double t_begin, double t_end) {
  logger_.log_event_at(comm, t_begin, configure_.start, "Configuration Phase");
  logger_.log_event_at(comm, t_end, configure_.end, "");
}

void LogViz::begin_compute(mpisim::Comm& comm, const Process& proc) {
  std::string text;
  util::append_all(text, proc.name, " i", proc.index);
  logger_.log_event(comm, compute_.start, text);
}

void LogViz::end_compute(mpisim::Comm& comm) {
  logger_.log_event(comm, compute_.end, "");
}

void LogViz::arrow_send(mpisim::Comm& comm, int dst_rank, int tag, std::size_t bytes) {
  logger_.log_send(comm, dst_rank, tag, bytes);
}

void LogViz::arrow_receive(mpisim::Comm& comm, double at_time, int src_rank, int tag,
                           std::size_t bytes) {
  logger_.log_receive_at(comm, at_time, src_rank, tag, bytes);
}

}  // namespace pilot
