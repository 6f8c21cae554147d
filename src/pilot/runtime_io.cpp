// The Pilot message engine: PI_Read / PI_Write, the collectives, and the
// select family. Wire layout per format specifier (= per message):
//
//   [writer signature : string] [element count : u64] [payload bytes]
//
// The embedded signature is what level-2 checking compares against the
// reader's own format; the element count makes "%^d" (receive an array of
// unknown length in one call, V2.1) possible.
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "pilot/runtime.hpp"
#include "util/bytebuf.hpp"
#include "util/strings.hpp"

namespace pilot {

namespace {

FormatSpec parse_signature(const std::string& sig) {
  return parse_format("%" + sig).front();
}

template <typename T>
std::vector<std::uint8_t> stage_scalar(T v) {
  std::vector<std::uint8_t> out(sizeof(T));
  std::memcpy(out.data(), &v, sizeof(T));
  return out;
}

// Analyze-service traffic recording: remember each side's distinct format
// signatures (only one thread ever touches a given side's vector).
void note_sig(std::vector<std::string>& sigs, const std::string& sig) {
  for (const auto& s : sigs)
    if (s == sig) return;
  if (sigs.size() < 8) sigs.push_back(sig);
}

}  // namespace

std::vector<Runtime::ParsedArg> Runtime::parse_write_args(const CallSite& site,
                                                          const char* fmt,
                                                          std::va_list ap) {
  std::vector<FormatSpec> specs;
  try {
    specs = parse_format(fmt ? fmt : "");
  } catch (const FormatError& e) {
    fail(site, e.what());
  }

  std::vector<ParsedArg> args;
  args.reserve(specs.size());
  for (const FormatSpec& spec : specs) {
    ParsedArg a;
    a.spec = spec;
    if (spec.count == CountKind::kScalar) {
      a.count = 1;
      switch (spec.type) {
        case ValueType::kChar:
          a.staged = stage_scalar(static_cast<char>(va_arg(ap, int)));
          break;
        case ValueType::kInt: a.staged = stage_scalar(va_arg(ap, int)); break;
        case ValueType::kUnsigned: a.staged = stage_scalar(va_arg(ap, unsigned)); break;
        case ValueType::kLong: a.staged = stage_scalar(va_arg(ap, long)); break;
        case ValueType::kUnsignedLong:
          a.staged = stage_scalar(va_arg(ap, unsigned long));
          break;
        case ValueType::kLongLong:
          a.staged = stage_scalar(va_arg(ap, long long));
          break;
        case ValueType::kUnsignedLongLong:
          a.staged = stage_scalar(va_arg(ap, unsigned long long));
          break;
        case ValueType::kFloat:
          a.staged = stage_scalar(static_cast<float>(va_arg(ap, double)));
          break;
        case ValueType::kDouble: a.staged = stage_scalar(va_arg(ap, double)); break;
        case ValueType::kBytes:
          fail(site, "%b cannot be scalar");  // parse_format already rejects
      }
      a.data = a.staged.data();
    } else {
      if (spec.count == CountKind::kFixed) {
        a.count = spec.fixed_count;
      } else {  // kStar / kCaret: runtime length argument
        const int n = va_arg(ap, int);
        if (n < 0)
          fail(site, util::strprintf("array length argument is negative (%d)", n));
        a.count = static_cast<std::size_t>(n);
      }
      a.data = va_arg(ap, const void*);
      if (a.count > 0 && a.data == nullptr) {
        if (opts_.check_level >= 3)
          fail(site, "array pointer argument seems invalid (null)");
        fail(site, "array pointer argument is null");
      }
    }
    args.push_back(std::move(a));
  }
  return args;
}

std::vector<Runtime::ParsedArg> Runtime::parse_read_args(const CallSite& site,
                                                         const char* fmt,
                                                         std::va_list ap) {
  std::vector<FormatSpec> specs;
  try {
    specs = parse_format(fmt ? fmt : "");
  } catch (const FormatError& e) {
    fail(site, e.what());
  }

  std::vector<ParsedArg> args;
  args.reserve(specs.size());
  for (const FormatSpec& spec : specs) {
    ParsedArg a;
    a.spec = spec;
    switch (spec.count) {
      case CountKind::kScalar:
        a.count = 1;
        a.dest = va_arg(ap, void*);
        break;
      case CountKind::kFixed:
        a.count = spec.fixed_count;
        a.dest = va_arg(ap, void*);
        break;
      case CountKind::kStar: {
        const int n = va_arg(ap, int);
        if (n < 0)
          fail(site, util::strprintf("array length argument is negative (%d)", n));
        a.count = static_cast<std::size_t>(n);
        a.dest = va_arg(ap, void*);
        break;
      }
      case CountKind::kCaret:
        a.len_out = va_arg(ap, int*);
        a.buf_out = va_arg(ap, void**);
        if (a.len_out == nullptr || a.buf_out == nullptr)
          fail(site, "%^ conversion needs an int* length and a T** buffer argument");
        break;
    }
    if (a.spec.count != CountKind::kCaret && a.count > 0 && a.dest == nullptr)
      fail(site, "destination pointer is null");
    args.push_back(a);
  }
  return args;
}

std::vector<std::uint8_t> Runtime::build_wire(const ParsedArg& arg) const {
  util::ByteWriter w;
  w.str(arg.spec.signature());
  w.u64(arg.count);
  if (arg.count > 0)
    w.raw(arg.data, arg.count * arg.spec.element_size());
  return w.take();
}

std::size_t Runtime::deliver_wire(const CallSite& site, const Channel& chan,
                                  const ParsedArg& arg,
                                  const std::vector<std::uint8_t>& wire) {
  util::ByteReader r(wire);
  std::string writer_sig;
  std::uint64_t count = 0;
  try {
    writer_sig = r.str();
    count = r.u64();
  } catch (const util::IoError&) {
    fail(site, "corrupt message on channel " + chan.name +
                   " (not written by PI_Write?)");
  }

  if (opts_.check_level >= 2) {
    FormatSpec writer;
    try {
      writer = parse_signature(writer_sig);
    } catch (const FormatError&) {
      fail(site, "corrupt writer signature on channel " + chan.name);
    }
    if (!specs_compatible(writer, arg.spec))
      fail(site, util::strprintf(
                     "format mismatch on channel %s: writer sent \"%%%s\" but "
                     "reader asked for \"%%%s\"",
                     chan.name.c_str(), writer_sig.c_str(),
                     arg.spec.signature().c_str()));
  }

  const std::size_t elem = arg.spec.element_size();
  if (r.remaining() != count * elem)
    fail(site, util::strprintf(
                   "message on channel %s is %zu bytes but declares %llu element(s) "
                   "of %zu byte(s)",
                   chan.name.c_str(), r.remaining(),
                   static_cast<unsigned long long>(count), elem));

  switch (arg.spec.count) {
    case CountKind::kScalar:
    case CountKind::kFixed:
    case CountKind::kStar:
      if (count != arg.count)
        fail(site, util::strprintf(
                       "length mismatch on channel %s: writer sent %llu element(s), "
                       "reader expected %zu",
                       chan.name.c_str(), static_cast<unsigned long long>(count),
                       arg.count));
      if (count > 0) std::memcpy(arg.dest, r.take(count * elem), count * elem);
      break;
    case CountKind::kCaret: {
      void* buf = std::malloc(std::max<std::size_t>(count * elem, 1));
      if (buf == nullptr) fail(site, "out of memory in %^ allocation");
      if (count > 0) std::memcpy(buf, r.take(count * elem), count * elem);
      *arg.len_out = static_cast<int>(count);
      *arg.buf_out = buf;
      break;
    }
  }
  return count;
}

// --- point-to-point -----------------------------------------------------------------

void Runtime::write(const CallSite& site, Channel* chan, const char* fmt,
                    std::va_list ap) {
  require_phase(site, Phase::kRunning, "PI_Write");
  if (chan == nullptr) fail(site, "PI_Write: channel is null");
  Process* me = current_process(site, "PI_Write");
  if (opts_.check_level >= 1 && chan->from != me)
    fail(site, util::strprintf("PI_Write: %s is not the writer of channel %s "
                               "(writer is %s)",
                               me->name.c_str(), chan->name.c_str(),
                               chan->from->name.c_str()));
  mpisim::Comm& c = comm(site, "PI_Write");

  svc_call_line(site, "PI_Write %s \"%s\"", chan->name.c_str(), fmt ? fmt : "");
  if (logviz_) logviz_->begin_state(c, logviz_->write_, site, *me);

  const auto args = parse_write_args(site, fmt, ap);
  for (const auto& arg : args) {
    const auto wire = build_wire(arg);
    if (opts_.svc_analyze) {
      ++chan->writes;
      note_sig(chan->write_sigs, arg.spec.signature());
    }
    if (logviz_) {
      logviz_->write_info(c, *chan, arg.count, arg.spec.type, arg.data);
      logviz_->arrow_send(c, chan->to->rank, chan->id, wire.size());
    }
    svc_write_event(chan->id);
    c.send(chan->to->rank, chan->id, wire.data(), wire.size());
  }
  if (logviz_) logviz_->end_state(c, logviz_->write_);
}

void Runtime::read(const CallSite& site, Channel* chan, const char* fmt,
                   std::va_list ap) {
  require_phase(site, Phase::kRunning, "PI_Read");
  if (chan == nullptr) fail(site, "PI_Read: channel is null");
  Process* me = current_process(site, "PI_Read");
  if (opts_.check_level >= 1 && chan->to != me)
    fail(site, util::strprintf("PI_Read: %s is not the reader of channel %s "
                               "(reader is %s)",
                               me->name.c_str(), chan->name.c_str(),
                               chan->to->name.c_str()));
  mpisim::Comm& c = comm(site, "PI_Read");

  svc_call_line(site, "PI_Read %s \"%s\"", chan->name.c_str(), fmt ? fmt : "");
  if (logviz_) logviz_->begin_state(c, logviz_->read_, site, *me);

  const auto args = parse_read_args(site, fmt, ap);
  svc_wait({chan->id}, site);
  if (logviz_ && opts_.svc_analyze) logviz_->wait_on(c, *chan);
  std::uint32_t consumed = 0;
  for (const auto& arg : args) {
    if (opts_.svc_analyze) {
      ++chan->reads;
      note_sig(chan->read_sigs, arg.spec.signature());
    }
    auto [st, wire] = c.recv_any_size(chan->from->rank, chan->id);
    const double arrival = c.wtime();
    deliver_wire(site, *chan, arg, wire);
    ++consumed;
    if (logviz_) {
      logviz_->msg_arrive(c, arrival, *chan);
      logviz_->arrow_receive(c, arrival, chan->from->rank, chan->id, wire.size());
    }
  }
  svc_consume(chan->id, consumed);
  svc_resume();
  if (logviz_) logviz_->end_state(c, logviz_->read_);
}

// --- collectives ---------------------------------------------------------------------

namespace {
// Comm::sleep, not std::this_thread: under -piexec=tasks the spread must be
// a virtual-time delay, or it would stall every rank on the carrier thread.
void arrow_spread_sleep(mpisim::Comm& c, double seconds) {
  if (seconds > 0.0) c.sleep(seconds);
}
}  // namespace

void Runtime::broadcast(const CallSite& site, Bundle* b, const char* fmt,
                        std::va_list ap) {
  require_phase(site, Phase::kRunning, "PI_Broadcast");
  if (b == nullptr) fail(site, "PI_Broadcast: bundle is null");
  if (opts_.check_level >= 1 && b->usage != PI_BROADCAST)
    fail(site, "PI_Broadcast: bundle " + b->name + " was not created PI_BROADCAST");
  Process* me = current_process(site, "PI_Broadcast");
  if (opts_.check_level >= 1 && b->common != me)
    fail(site, util::strprintf("PI_Broadcast: %s is not the broadcaster of %s (%s is)",
                               me->name.c_str(), b->name.c_str(),
                               b->common->name.c_str()));
  mpisim::Comm& c = comm(site, "PI_Broadcast");

  svc_call_line(site, "PI_Broadcast %s \"%s\"", b->name.c_str(), fmt ? fmt : "");
  if (logviz_) logviz_->begin_state(c, logviz_->broadcast_, site, *me, b);

  const auto args = parse_write_args(site, fmt, ap);
  for (const auto& arg : args) {
    const auto wire = build_wire(arg);
    if (logviz_)
      logviz_->write_info(c, *b->channels.front(), arg.count, arg.spec.type, arg.data);
    for (std::size_t i = 0; i < b->channels.size(); ++i) {
      if (i > 0) arrow_spread_sleep(c, opts_.arrow_spread);
      Channel* chan = b->channels[i];
      if (opts_.svc_analyze) {
        ++chan->writes;
        note_sig(chan->write_sigs, arg.spec.signature());
      }
      if (logviz_) logviz_->arrow_send(c, chan->to->rank, chan->id, wire.size());
      svc_write_event(chan->id);
      c.send(chan->to->rank, chan->id, wire.data(), wire.size());
    }
  }
  if (logviz_) logviz_->end_state(c, logviz_->broadcast_);
}

void Runtime::scatter(const CallSite& site, Bundle* b, const char* fmt,
                      std::va_list ap) {
  require_phase(site, Phase::kRunning, "PI_Scatter");
  if (b == nullptr) fail(site, "PI_Scatter: bundle is null");
  if (opts_.check_level >= 1 && b->usage != PI_SCATTER)
    fail(site, "PI_Scatter: bundle " + b->name + " was not created PI_SCATTER");
  Process* me = current_process(site, "PI_Scatter");
  if (opts_.check_level >= 1 && b->common != me)
    fail(site, util::strprintf("PI_Scatter: %s is not the scatterer of %s (%s is)",
                               me->name.c_str(), b->name.c_str(),
                               b->common->name.c_str()));
  mpisim::Comm& c = comm(site, "PI_Scatter");

  svc_call_line(site, "PI_Scatter %s \"%s\"", b->name.c_str(), fmt ? fmt : "");
  if (logviz_) logviz_->begin_state(c, logviz_->scatter_, site, *me, b);

  // Scatter takes a pointer per specifier: `count` elements PER RECEIVER
  // (scalar = 1), drawn consecutively from an array of count * N elements.
  std::vector<FormatSpec> specs;
  try {
    specs = parse_format(fmt ? fmt : "");
  } catch (const FormatError& e) {
    fail(site, e.what());
  }
  const std::size_t nchan = b->channels.size();
  for (const FormatSpec& spec : specs) {
    std::size_t per_receiver = 1;
    if (spec.count == CountKind::kFixed) {
      per_receiver = spec.fixed_count;
    } else if (spec.count == CountKind::kStar || spec.count == CountKind::kCaret) {
      const int n = va_arg(ap, int);
      if (n < 0) fail(site, "PI_Scatter: negative length argument");
      per_receiver = static_cast<std::size_t>(n);
    }
    const auto* src = static_cast<const std::uint8_t*>(va_arg(ap, const void*));
    if (per_receiver > 0 && src == nullptr)
      fail(site, "PI_Scatter: source pointer is null");
    const std::size_t elem = spec.element_size();

    ParsedArg slice;
    slice.spec = spec;
    slice.count = per_receiver;
    for (std::size_t i = 0; i < nchan; ++i) {
      if (i > 0) arrow_spread_sleep(c, opts_.arrow_spread);
      Channel* chan = b->channels[i];
      slice.data = src + i * per_receiver * elem;
      const auto wire = build_wire(slice);
      if (opts_.svc_analyze) {
        ++chan->writes;
        note_sig(chan->write_sigs, slice.spec.signature());
      }
      if (logviz_) {
        if (i == 0) logviz_->write_info(c, *chan, per_receiver, spec.type, slice.data);
        logviz_->arrow_send(c, chan->to->rank, chan->id, wire.size());
      }
      svc_write_event(chan->id);
      c.send(chan->to->rank, chan->id, wire.data(), wire.size());
    }
  }
  if (logviz_) logviz_->end_state(c, logviz_->scatter_);
}

void Runtime::gather(const CallSite& site, Bundle* b, const char* fmt,
                     std::va_list ap) {
  require_phase(site, Phase::kRunning, "PI_Gather");
  if (b == nullptr) fail(site, "PI_Gather: bundle is null");
  if (opts_.check_level >= 1 && b->usage != PI_GATHER)
    fail(site, "PI_Gather: bundle " + b->name + " was not created PI_GATHER");
  Process* me = current_process(site, "PI_Gather");
  if (opts_.check_level >= 1 && b->common != me)
    fail(site, util::strprintf("PI_Gather: %s is not the gatherer of %s (%s is)",
                               me->name.c_str(), b->name.c_str(),
                               b->common->name.c_str()));
  mpisim::Comm& c = comm(site, "PI_Gather");

  svc_call_line(site, "PI_Gather %s \"%s\"", b->name.c_str(), fmt ? fmt : "");
  if (logviz_) logviz_->begin_state(c, logviz_->gather_, site, *me, b);

  // Gather fills a pointer per specifier with `count` elements PER SENDER
  // (scalar = 1), rank-ordered: count * N elements total.
  std::vector<FormatSpec> specs;
  try {
    specs = parse_format(fmt ? fmt : "");
  } catch (const FormatError& e) {
    fail(site, e.what());
  }

  std::vector<int> ids;
  ids.reserve(b->channels.size());
  for (const Channel* chan : b->channels) ids.push_back(chan->id);
  svc_wait(ids, site);
  if (logviz_ && opts_.svc_analyze)
    for (const Channel* chan : b->channels) logviz_->wait_on(c, *chan);

  for (const FormatSpec& spec : specs) {
    if (spec.count == CountKind::kCaret)
      fail(site, "PI_Gather does not support %^ (lengths must be known)");
    std::size_t per_sender = 1;
    if (spec.count == CountKind::kFixed) {
      per_sender = spec.fixed_count;
    } else if (spec.count == CountKind::kStar) {
      const int n = va_arg(ap, int);
      if (n < 0) fail(site, "PI_Gather: negative length argument");
      per_sender = static_cast<std::size_t>(n);
    }
    auto* dst = static_cast<std::uint8_t*>(va_arg(ap, void*));
    if (dst == nullptr) fail(site, "PI_Gather: destination pointer is null");
    const std::size_t elem = spec.element_size();

    ParsedArg slot;
    slot.spec = spec;
    slot.count = per_sender;
    for (std::size_t i = 0; i < b->channels.size(); ++i) {
      Channel* chan = b->channels[i];
      slot.dest = dst + i * per_sender * elem;
      if (opts_.svc_analyze) {
        ++chan->reads;
        note_sig(chan->read_sigs, slot.spec.signature());
      }
      auto [st, wire] = c.recv_any_size(chan->from->rank, chan->id);
      const double arrival = c.wtime();
      deliver_wire(site, *chan, slot, wire);
      svc_consume(chan->id, 1);
      if (logviz_) {
        logviz_->msg_arrive(c, arrival, *chan);
        logviz_->arrow_receive(c, arrival, chan->from->rank, chan->id, wire.size());
      }
    }
  }
  svc_resume();
  if (logviz_) logviz_->end_state(c, logviz_->gather_);
}

void Runtime::reduce(const CallSite& site, Bundle* b, PI_REDOP op, const char* fmt,
                     std::va_list ap) {
  require_phase(site, Phase::kRunning, "PI_Reduce");
  if (b == nullptr) fail(site, "PI_Reduce: bundle is null");
  if (opts_.check_level >= 1 && b->usage != PI_REDUCE)
    fail(site, "PI_Reduce: bundle " + b->name + " was not created PI_REDUCE");
  if (op < PI_SUM || op > PI_MAX) fail(site, "PI_Reduce: invalid operator");
  Process* me = current_process(site, "PI_Reduce");
  if (opts_.check_level >= 1 && b->common != me)
    fail(site, util::strprintf("PI_Reduce: %s is not the reducer of %s (%s is)",
                               me->name.c_str(), b->name.c_str(),
                               b->common->name.c_str()));
  mpisim::Comm& c = comm(site, "PI_Reduce");

  svc_call_line(site, "PI_Reduce %s \"%s\"", b->name.c_str(), fmt ? fmt : "");
  if (logviz_) logviz_->begin_state(c, logviz_->reduce_, site, *me, b);

  std::vector<FormatSpec> specs;
  try {
    specs = parse_format(fmt ? fmt : "");
  } catch (const FormatError& e) {
    fail(site, e.what());
  }

  std::vector<int> ids;
  ids.reserve(b->channels.size());
  for (const Channel* chan : b->channels) ids.push_back(chan->id);
  svc_wait(ids, site);
  if (logviz_ && opts_.svc_analyze)
    for (const Channel* chan : b->channels) logviz_->wait_on(c, *chan);

  for (const FormatSpec& spec : specs) {
    if (spec.count == CountKind::kCaret)
      fail(site, "PI_Reduce does not support %^");
    if (spec.type == ValueType::kBytes)
      fail(site, "PI_Reduce does not support %b");
    std::size_t count = 1;
    if (spec.count == CountKind::kFixed) {
      count = spec.fixed_count;
    } else if (spec.count == CountKind::kStar) {
      const int n = va_arg(ap, int);
      if (n < 0) fail(site, "PI_Reduce: negative length argument");
      count = static_cast<std::size_t>(n);
    }
    auto* dst = static_cast<std::uint8_t*>(va_arg(ap, void*));
    if (dst == nullptr) fail(site, "PI_Reduce: destination pointer is null");
    const std::size_t elem = spec.element_size();
    const std::size_t bytes = count * elem;

    const mpisim::Datatype dt = [&] {
      switch (spec.type) {
        case ValueType::kChar: return mpisim::Datatype::kChar;
        case ValueType::kInt: return mpisim::Datatype::kInt;
        case ValueType::kUnsigned: return mpisim::Datatype::kUnsigned;
        case ValueType::kLong: return mpisim::Datatype::kLong;
        case ValueType::kUnsignedLong: return mpisim::Datatype::kUnsignedLong;
        case ValueType::kLongLong: return mpisim::Datatype::kLongLong;
        case ValueType::kUnsignedLongLong:
          return mpisim::Datatype::kUnsignedLongLong;
        case ValueType::kFloat: return mpisim::Datatype::kFloat;
        case ValueType::kDouble: return mpisim::Datatype::kDouble;
        case ValueType::kBytes: return mpisim::Datatype::kByte;
      }
      return mpisim::Datatype::kByte;
    }();
    const mpisim::Op mop = [&] {
      switch (op) {
        case PI_SUM: return mpisim::Op::kSum;
        case PI_PROD: return mpisim::Op::kProd;
        case PI_MIN: return mpisim::Op::kMin;
        case PI_MAX: return mpisim::Op::kMax;
      }
      return mpisim::Op::kSum;
    }();

    ParsedArg slot;
    slot.spec = spec;
    slot.count = count;
    std::vector<std::uint8_t> contribution(bytes);
    slot.dest = contribution.data();
    for (std::size_t i = 0; i < b->channels.size(); ++i) {
      Channel* chan = b->channels[i];
      if (opts_.svc_analyze) {
        ++chan->reads;
        note_sig(chan->read_sigs, slot.spec.signature());
      }
      auto [st, wire] = c.recv_any_size(chan->from->rank, chan->id);
      const double arrival = c.wtime();
      deliver_wire(site, *chan, slot, wire);
      svc_consume(chan->id, 1);
      if (logviz_) {
        logviz_->msg_arrive(c, arrival, *chan);
        logviz_->arrow_receive(c, arrival, chan->from->rank, chan->id, wire.size());
      }
      if (i == 0) {
        std::memcpy(dst, contribution.data(), bytes);
      } else {
        mpisim::reduce_apply(mop, dt, dst, contribution.data(), count);
      }
    }
  }
  svc_resume();
  if (logviz_) logviz_->end_state(c, logviz_->reduce_);
}

// --- select family -----------------------------------------------------------------

void Runtime::wait_channel_ready(mpisim::Comm& c, const Channel& chan,
                                 int subject_id, int branch,
                                 const CallSite& site) {
  // Blocking bounded probe instead of an iprobe spin: a spin would livelock
  // the cooperative substrate (and waste a core on the preemptive one).
  // Under tasks the timeout is a virtual timer, so a branch that can never
  // become ready is diagnosed without a wall-clock wait.
  if (!c.probe_any({{chan.from->rank, chan.id}}, replay_->timeout_seconds()))
    replay_->branch_never_ready(c.rank(), subject_id, branch, site.file,
                                site.line);
}

int Runtime::select(const CallSite& site, Bundle* b) {
  require_phase(site, Phase::kRunning, "PI_Select");
  if (b == nullptr) fail(site, "PI_Select: bundle is null");
  if (opts_.check_level >= 1 && b->usage != PI_SELECT_B)
    fail(site, "PI_Select: bundle " + b->name + " was not created PI_SELECT_B");
  Process* me = current_process(site, "PI_Select");
  if (opts_.check_level >= 1 && b->common != me)
    fail(site, util::strprintf("PI_Select: %s is not the reader of %s (%s is)",
                               me->name.c_str(), b->name.c_str(),
                               b->common->name.c_str()));
  mpisim::Comm& c = comm(site, "PI_Select");

  svc_call_line(site, "PI_Select %s", b->name.c_str());
  if (logviz_) logviz_->begin_state(c, logviz_->select_, site, *me, b);

  std::vector<int> ids;
  ids.reserve(b->channels.size());
  for (const Channel* chan : b->channels) ids.push_back(chan->id);
  svc_wait(ids, site);
  if (logviz_ && opts_.svc_analyze)
    for (const Channel* chan : b->channels) logviz_->wait_on(c, *chan);

  int ready = -1;
  if (replay_ && replay_->replaying()) {
    // Enforce the recorded branch: wait for exactly that channel, however
    // the probe timing falls this run.
    ready = replay_->replay_select(c.rank(), b->id,
                                   static_cast<int>(b->channels.size()),
                                   site.file, site.line);
    const Channel* chan = b->channels[static_cast<std::size_t>(ready)];
    wait_channel_ready(c, *chan, b->id, ready, site);
  } else {
    // One blocking multi-channel probe; the substrate keeps the select
    // family's lowest-branch preference (first ready pair in argument
    // order) on both substrates.
    std::vector<std::pair<int, int>> wants;
    wants.reserve(b->channels.size());
    for (const Channel* chan : b->channels)
      wants.emplace_back(chan->from->rank, chan->id);
    ready = static_cast<int>(*c.probe_any(wants));
    if (replay_) replay_->record_select(c.rank(), b->id, ready);
  }
  svc_resume();
  // A state like PI_Read, but no arrival bubble: no message is consumed
  // until the subsequent PI_Read (paper, Section III-B). The popup carries
  // the ready channel index instead.
  if (logviz_)
    logviz_->end_state(c, logviz_->select_, util::strprintf("ready=%d", ready));
  return ready;
}

int Runtime::try_select(const CallSite& site, Bundle* b) {
  require_phase(site, Phase::kRunning, "PI_TrySelect");
  if (b == nullptr) fail(site, "PI_TrySelect: bundle is null");
  if (opts_.check_level >= 1 && b->usage != PI_SELECT_B)
    fail(site, "PI_TrySelect: bundle " + b->name + " was not created PI_SELECT_B");
  Process* me = current_process(site, "PI_TrySelect");
  if (opts_.check_level >= 1 && b->common != me)
    fail(site, util::strprintf("PI_TrySelect: %s is not the reader of %s",
                               me->name.c_str(), b->name.c_str()));
  mpisim::Comm& c = comm(site, "PI_TrySelect");

  int ready = -1;
  if (replay_ && replay_->replaying()) {
    ready = replay_->replay_try_select(c.rank(), b->id,
                                       static_cast<int>(b->channels.size()),
                                       site.file, site.line);
    // A recorded hit must be a hit again; a recorded miss is simply a miss
    // (not probing at all keeps the observable outcome identical).
    if (ready >= 0)
      wait_channel_ready(c, *b->channels[static_cast<std::size_t>(ready)],
                         b->id, ready, site);
  } else {
    for (std::size_t i = 0; i < b->channels.size(); ++i) {
      const Channel* chan = b->channels[i];
      if (c.iprobe(chan->from->rank, chan->id)) {
        ready = static_cast<int>(i);
        break;
      }
    }
    if (replay_) replay_->record_try_select(c.rank(), b->id, ready);
  }
  svc_call_line(site, "PI_TrySelect %s -> %d", b->name.c_str(), ready);
  if (logviz_) logviz_->utility(c, "PI_TrySelect", site, ready);
  return ready;
}

int Runtime::channel_has_data(const CallSite& site, Channel* chan) {
  require_phase(site, Phase::kRunning, "PI_ChannelHasData");
  if (chan == nullptr) fail(site, "PI_ChannelHasData: channel is null");
  Process* me = current_process(site, "PI_ChannelHasData");
  if (opts_.check_level >= 1 && chan->to != me)
    fail(site, util::strprintf("PI_ChannelHasData: %s is not the reader of %s",
                               me->name.c_str(), chan->name.c_str()));
  mpisim::Comm& c = comm(site, "PI_ChannelHasData");

  int has = 0;
  if (replay_ && replay_->replaying()) {
    has = replay_->replay_has_data(c.rank(), chan->id, site.file, site.line);
    if (has == 1) wait_channel_ready(c, *chan, chan->id, has, site);
  } else {
    has = c.iprobe(chan->from->rank, chan->id) ? 1 : 0;
    if (replay_) replay_->record_has_data(c.rank(), chan->id, has);
  }
  svc_call_line(site, "PI_ChannelHasData %s -> %d", chan->name.c_str(), has);
  if (logviz_) logviz_->utility(c, "PI_ChannelHasData", site, has);
  return has;
}

}  // namespace pilot
