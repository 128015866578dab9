// Wire probes: WireTransport wrappers that observe the daemon and the fleets
// from outside the library.
//
// RecordingWire sits between the KeyServerDaemon and its socket. It finds
// each batch's timed window from the frames the daemon emits:
//
//   close     the return of the daemon's last wire call before it starts
//             batch b: the first SnapChunk of snapshot b on a replicated
//             daemon, else BatchStart(b). That call is always a receive.
//   confirmed the return of the last receive before BatchDone(b), i.e. the
//             receive that completed the batch's final lockstep report step.
//
// The DoneAck wait and the Fin linger therefore fall outside every window.
// With call logging on (traced runs) it also keeps every wire call, from
// which segment_batches() tiles each window into layer spans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "wire/wire.h"

namespace perfbench {

namespace wire = rekey::wire;

double now_ms();          // steady clock
double process_cpu_ms();  // user+sys of every thread of this process
double thread_cpu_ms();   // user+sys of the calling thread

struct WireCall {
  enum Kind : std::uint8_t { kSend, kSendFrames, kReceive };
  Kind kind = kSend;
  std::uint8_t op = 0;     // control op of a send (0: data frames)
  std::uint8_t phase = 0;  // RoundMark phase
  double t0 = 0.0;
  double t1 = 0.0;
  std::uint32_t enc = 0;     // send_frames: ENC frames (padding included)
  std::uint32_t enc_unique = 0;  // send_frames: ENC frames, padding excluded
  std::uint32_t parity = 0;      // send_frames: PARITY frames
  std::uint32_t reports = 0;     // receive: Report parts
};

struct BatchMarks {
  bool snapshot = false;  // window opened with a snapshot ship
  double close_ms = 0.0, close_cpu = 0.0;
  std::uint64_t close_sys = 0;
  double pipe_start_ms = 0.0, pipe_start_cpu = 0.0;
  double pipe_end_ms = 0.0, pipe_end_cpu = 0.0;
  double confirm_ms = 0.0, confirm_cpu = 0.0;
  std::uint64_t confirm_sys = 0;
  bool confirmed = false;
};

// Traffic inside the timed windows.
struct WindowTotals {
  std::uint64_t receive_calls = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t data_frames = 0;
  std::uint64_t data_bytes = 0;
  double send_frames_ms = 0.0;
  std::uint64_t usr_bytes = 0;
  std::uint64_t snap_bytes = 0;
};

class RecordingWire : public wire::WireTransport {
 public:
  RecordingWire(wire::WireTransport& inner, bool log_calls);

  bool send(wire::Endpoint to, std::uint8_t channel,
            std::span<const std::uint8_t> payload) override;
  std::size_t send_frames(wire::Endpoint to, std::uint8_t channel,
                          std::span<const rekey::Bytes* const> frames) override;
  std::size_t receive(std::vector<wire::Datagram>& out,
                      int timeout_ms) override;
  std::size_t max_payload() const override { return inner_.max_payload(); }

  const std::vector<BatchMarks>& batches() const { return batches_; }
  const std::vector<WireCall>& calls() const { return calls_; }
  const WindowTotals& totals() const { return totals_; }

 private:
  void open_window(bool snapshot);

  wire::WireTransport& inner_;
  bool log_calls_;
  bool open_ = false;
  std::uint32_t next_batch_ = 0;
  double last_recv_ms_ = 0.0;
  double last_recv_cpu_ = 0.0;
  std::uint64_t last_recv_sys_ = 0;
  std::vector<BatchMarks> batches_;
  std::vector<WireCall> calls_;
  WindowTotals totals_;
};

// One layer span of a batch window. Spans of one batch tile its window.
enum class SegKind {
  kSnapshot,
  kPipeline,
  kBurst,
  kRoundWait,
  kUsrSend,
  kUsrWait
};
const char* segment_name(SegKind k);

struct Segment {
  SegKind kind = SegKind::kPipeline;
  double t0 = 0.0;
  double t1 = 0.0;
  double calls_ms = 0.0;  // time inside wire calls (children)
  std::size_t first_call = 0;
  std::size_t end_call = 0;  // calls [first_call, end_call) are children
};

struct BatchSegments {
  std::vector<Segment> segments;
  // Share of the window left uncovered or covered twice.
  double gap_frac = 0.0;
  // Round-1 burst composition per endpoint (first send_frames call).
  std::uint32_t r1_enc = 0, r1_enc_unique = 0, r1_parity = 0;
  std::uint32_t report_parts = 0;
};

// Tiles every confirmed window; needs the call log.
std::vector<BatchSegments> segment_batches(const RecordingWire& rec);

// Writes one JSON line per span (batch window, segment, wire call) with
// name, start, end, parent span id and batch id.
void write_spans(const std::string& path, const RecordingWire& rec,
                 const std::vector<BatchSegments>& segs);

// Fleet-side probe: CPU of the fleet's thread and its receive pattern from
// the first frame of `first_batch` to BatchDone of `last_batch`.
class FleetProbe : public wire::WireTransport {
 public:
  FleetProbe(wire::WireTransport& inner, std::uint32_t first_batch,
             std::uint32_t last_batch)
      : inner_(inner), first_batch_(first_batch), last_batch_(last_batch) {}

  bool send(wire::Endpoint to, std::uint8_t channel,
            std::span<const std::uint8_t> payload) override {
    return inner_.send(to, channel, payload);
  }
  std::size_t send_frames(wire::Endpoint to, std::uint8_t channel,
                          std::span<const rekey::Bytes* const> frames) override {
    return inner_.send_frames(to, channel, frames);
  }
  std::size_t receive(std::vector<wire::Datagram>& out,
                      int timeout_ms) override;
  std::size_t max_payload() const override { return inner_.max_payload(); }

  bool complete() const { return started_ && ended_; }
  double cpu_ms() const { return cpu_end_ - cpu_start_; }
  double wall_ms() const { return t_end_ - t_start_; }
  std::uint64_t receive_calls() const { return receive_calls_; }
  std::uint64_t datagrams() const { return datagrams_; }

 private:
  wire::WireTransport& inner_;
  std::uint32_t first_batch_;
  std::uint32_t last_batch_;
  bool started_ = false;
  bool ended_ = false;
  double t_start_ = 0.0, t_end_ = 0.0, cpu_start_ = 0.0, cpu_end_ = 0.0;
  std::uint64_t receive_calls_ = 0;
  std::uint64_t datagrams_ = 0;
};

}  // namespace perfbench
