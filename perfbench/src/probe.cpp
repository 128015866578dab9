#include "probe.h"

#include <time.h>

#include <chrono>
#include <fstream>

#include "common/json.h"
#include "packet/wire.h"
#include "wire/backend.h"
#include "wire/control.h"

namespace perfbench {

namespace {

double clock_ms(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

std::uint8_t op_of(std::span<const std::uint8_t> payload) {
  const auto op = wire::peek_op(payload);
  return op ? static_cast<std::uint8_t>(*op) : 0;
}

constexpr std::uint8_t kOp(wire::ControlOp op) {
  return static_cast<std::uint8_t>(op);
}

}  // namespace

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
double process_cpu_ms() { return clock_ms(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_ms() { return clock_ms(CLOCK_THREAD_CPUTIME_ID); }

RecordingWire::RecordingWire(wire::WireTransport& inner, bool log_calls)
    : inner_(inner), log_calls_(log_calls) {
  if (log_calls_) calls_.reserve(1 << 16);
}

void RecordingWire::open_window(bool snapshot) {
  BatchMarks m;
  m.snapshot = snapshot;
  m.close_ms = last_recv_ms_;
  m.close_cpu = last_recv_cpu_;
  m.close_sys = last_recv_sys_;
  batches_.push_back(m);
  open_ = true;
}

bool RecordingWire::send(wire::Endpoint to, std::uint8_t channel,
                         std::span<const std::uint8_t> payload) {
  const std::uint8_t op = channel == wire::kChanControl ? op_of(payload) : 0;
  const double t0 = now_ms();
  if (op == kOp(wire::ControlOp::SnapChunk) && !open_) {
    const auto f = wire::parse_snap_chunk(payload);
    if (f && f->snap_seq == next_batch_) open_window(true);
  } else if (op == kOp(wire::ControlOp::BatchStart)) {
    const auto f = wire::parse_batch_start(payload);
    if (f && f->batch_seq == next_batch_ &&
        (!open_ || batches_.back().pipe_end_ms == 0.0)) {
      if (!open_) open_window(false);
      BatchMarks& m = batches_.back();
      m.pipe_start_ms = last_recv_ms_;
      m.pipe_start_cpu = last_recv_cpu_;
      m.pipe_end_ms = t0;
      m.pipe_end_cpu = process_cpu_ms();
    }
  } else if (op == kOp(wire::ControlOp::BatchDone) && open_) {
    const auto f = wire::parse_batch_done(payload);
    if (f && f->batch_seq == next_batch_) {
      BatchMarks& m = batches_.back();
      m.confirm_ms = last_recv_ms_;
      m.confirm_cpu = last_recv_cpu_;
      m.confirm_sys = last_recv_sys_;
      m.confirmed = true;
      open_ = false;
      ++next_batch_;
    }
  }
  const bool ok = inner_.send(to, channel, payload);
  if (open_) {
    if (op == kOp(wire::ControlOp::UsrFrag) ||
        op == kOp(wire::ControlOp::UsrFragV2)) {
      totals_.usr_bytes += payload.size();
    } else if (op == kOp(wire::ControlOp::SnapChunk)) {
      totals_.snap_bytes += payload.size();
    }
  }
  if (log_calls_) {
    WireCall c;
    c.kind = WireCall::kSend;
    c.op = op;
    if (op == kOp(wire::ControlOp::RoundMark)) {
      const auto f = wire::parse_round_mark(payload);
      if (f) c.phase = f->phase;
    }
    c.t0 = t0;
    c.t1 = now_ms();
    calls_.push_back(c);
  }
  return ok;
}

std::size_t RecordingWire::send_frames(
    wire::Endpoint to, std::uint8_t channel,
    std::span<const rekey::Bytes* const> frames) {
  const double t0 = now_ms();
  const std::size_t sent = inner_.send_frames(to, channel, frames);
  const double t1 = now_ms();
  if (open_) {
    totals_.data_frames += sent;
    for (std::size_t i = 0; i < sent; ++i)
      totals_.data_bytes += frames[i]->size();
    totals_.send_frames_ms += t1 - t0;
  }
  if (log_calls_) {
    WireCall c;
    c.kind = WireCall::kSendFrames;
    c.t0 = t0;
    c.t1 = t1;
    for (std::size_t i = 0; i < sent; ++i) {
      const rekey::Bytes& f = *frames[i];
      const auto type = rekey::packet::peek_type(f);
      if (type == rekey::packet::PacketType::Enc) {
        ++c.enc;
        const auto h = rekey::packet::parse_enc_header(f);
        if (h && !h->duplicate) ++c.enc_unique;
      } else if (type == rekey::packet::PacketType::Parity) {
        ++c.parity;
      }
    }
    calls_.push_back(c);
  }
  return sent;
}

std::size_t RecordingWire::receive(std::vector<wire::Datagram>& out,
                                   int timeout_ms) {
  const std::size_t before = out.size();
  const double t0 = log_calls_ ? now_ms() : 0.0;
  const std::size_t n = inner_.receive(out, timeout_ms);
  last_recv_ms_ = now_ms();
  last_recv_cpu_ = process_cpu_ms();
  last_recv_sys_ = wire::wire_syscalls().value();
  if (open_) {
    ++totals_.receive_calls;
    totals_.datagrams += n;
  }
  if (log_calls_) {
    WireCall c;
    c.kind = WireCall::kReceive;
    c.t0 = t0;
    c.t1 = last_recv_ms_;
    for (std::size_t i = before; i < out.size(); ++i) {
      const std::uint8_t op = out[i].channel == wire::kChanControl
                                  ? op_of(out[i].payload)
                                  : 0;
      if (op == kOp(wire::ControlOp::Report) ||
          op == kOp(wire::ControlOp::ReportV2))
        ++c.reports;
    }
    calls_.push_back(c);
  }
  return n;
}

std::vector<BatchSegments> segment_batches(const RecordingWire& rec) {
  using Op = wire::ControlOp;
  const std::vector<WireCall>& calls = rec.calls();
  std::vector<BatchSegments> out;
  std::size_t i = 0;
  for (const BatchMarks& m : rec.batches()) {
    if (!m.confirmed) break;
    while (i < calls.size() && calls[i].t0 < m.close_ms) ++i;
    BatchSegments bs;
    std::vector<Segment>& segs = bs.segments;
    // Closes the open segment at `t` and opens `kind` there; calls from
    // index `call` on belong to the new one.
    auto start = [&](SegKind kind, double t, std::size_t call) {
      if (!segs.empty()) {
        segs.back().t1 = t;
        segs.back().end_call = call;
      }
      Segment s;
      s.kind = kind;
      s.t0 = t;
      s.first_call = call;
      segs.push_back(s);
    };
    start(m.snapshot ? SegKind::kSnapshot : SegKind::kPipeline, m.close_ms, i);
    bool first_burst = true;
    for (; i < calls.size() && calls[i].t1 <= m.confirm_ms; ++i) {
      const WireCall& c = calls[i];
      const double prev_end = i > 0 ? calls[i - 1].t1 : m.close_ms;
      const SegKind cur = segs.back().kind;
      const bool send = c.kind == WireCall::kSend;
      if (send && c.op == kOp(Op::BatchStart) &&
          (cur == SegKind::kSnapshot || cur == SegKind::kPipeline)) {
        // Pure compute from the last wire call to BatchStart.
        if (cur == SegKind::kSnapshot) start(SegKind::kPipeline, prev_end, i);
        start(SegKind::kBurst, c.t0, i);
      } else if (c.kind == WireCall::kSendFrames &&
                 cur == SegKind::kRoundWait) {
        start(SegKind::kBurst, prev_end, i);
      } else if (send && c.op == kOp(Op::RoundMark) && c.phase == 0 &&
                 cur == SegKind::kBurst) {
        start(SegKind::kRoundWait, prev_end, i);
      } else if (send &&
                 (c.op == kOp(Op::UsrFrag) || c.op == kOp(Op::UsrFragV2)) &&
                 (cur == SegKind::kRoundWait || cur == SegKind::kUsrWait)) {
        start(SegKind::kUsrSend, prev_end, i);
      } else if (send && c.op == kOp(Op::RoundMark) && c.phase == 1 &&
                 cur == SegKind::kUsrSend) {
        start(SegKind::kUsrWait, prev_end, i);
      }
      if (c.kind == WireCall::kSendFrames && first_burst) {
        first_burst = false;
        bs.r1_enc = c.enc;
        bs.r1_enc_unique = c.enc_unique;
        bs.r1_parity = c.parity;
      }
      bs.report_parts += c.reports;
      segs.back().calls_ms += c.t1 - c.t0;
    }
    segs.back().t1 = m.confirm_ms;
    segs.back().end_call = i;
    const double window = m.confirm_ms - m.close_ms;
    double covered = 0.0;
    double at = m.close_ms;
    for (const Segment& s : segs) {
      // Holes and overlaps both count against the tiling.
      if (s.t0 < at) bs.gap_frac += (at - s.t0) / window;
      covered += std::max(0.0, s.t1 - std::max(s.t0, at));
      at = std::max(at, s.t1);
    }
    if (window > 0.0) bs.gap_frac += (window - covered) / window;
    out.push_back(std::move(bs));
  }
  return out;
}

const char* segment_name(SegKind k) {
  switch (k) {
    case SegKind::kSnapshot: return "snapshot";
    case SegKind::kPipeline: return "pipeline";
    case SegKind::kBurst: return "burst";
    case SegKind::kRoundWait: return "round_wait";
    case SegKind::kUsrSend: return "usr_send";
    case SegKind::kUsrWait: return "usr_wait";
  }
  return "?";
}

void write_spans(const std::string& path, const RecordingWire& rec,
                 const std::vector<BatchSegments>& segs) {
  std::ofstream os(path);
  const std::vector<WireCall>& calls = rec.calls();
  std::int64_t next_id = 1;
  auto emit = [&](const char* name, double t0, double t1, std::int64_t parent,
                  std::size_t batch) {
    rekey::Json j = rekey::Json::object();
    const std::int64_t id = next_id++;
    j.set("id", id);
    j.set("name", name);
    j.set("start_ms", t0);
    j.set("end_ms", t1);
    j.set("parent", parent);
    j.set("batch", static_cast<std::int64_t>(batch));
    os << j.dump() << '\n';
    return id;
  };
  static const char* const kCallNames[] = {"send", "send_frames", "receive"};
  for (std::size_t b = 0; b < segs.size(); ++b) {
    const BatchMarks& m = rec.batches()[b];
    const std::int64_t root = emit("batch", m.close_ms, m.confirm_ms, 0, b);
    for (const Segment& s : segs[b].segments) {
      const std::int64_t sid = emit(segment_name(s.kind), s.t0, s.t1, root, b);
      for (std::size_t k = s.first_call; k < s.end_call; ++k)
        emit(kCallNames[calls[k].kind], calls[k].t0, calls[k].t1, sid, b);
    }
  }
}

std::size_t FleetProbe::receive(std::vector<wire::Datagram>& out,
                                int timeout_ms) {
  const std::size_t before = out.size();
  const std::size_t n = inner_.receive(out, timeout_ms);
  if (ended_) return n;
  if (!started_) {
    for (std::size_t i = before; i < out.size() && !started_; ++i) {
      const wire::Datagram& d = out[i];
      if (d.channel == wire::kChanData) {
        // The data-plane msg id is batch_seq % 64.
        started_ = !d.payload.empty() &&
                   (d.payload[0] & 0x3F) == first_batch_ % 64;
      } else if (d.channel == wire::kChanControl &&
                 op_of(d.payload) == kOp(wire::ControlOp::BatchStart)) {
        const auto f = wire::parse_batch_start(d.payload);
        started_ = f && f->batch_seq == first_batch_;
      }
    }
    if (!started_) return n;
    t_start_ = now_ms();
    cpu_start_ = thread_cpu_ms();
  }
  ++receive_calls_;
  datagrams_ += n;
  for (std::size_t i = before; i < out.size(); ++i) {
    const wire::Datagram& d = out[i];
    if (d.channel != wire::kChanControl ||
        op_of(d.payload) != kOp(wire::ControlOp::BatchDone))
      continue;
    const auto f = wire::parse_batch_done(d.payload);
    if (f && f->batch_seq == last_batch_) {
      ended_ = true;
      t_end_ = now_ms();
      cpu_end_ = thread_cpu_ms();
    }
  }
  return n;
}

}  // namespace perfbench
