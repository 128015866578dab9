#include "workload.h"

#include <algorithm>
#include <array>

namespace perfbench {

namespace {

// Control-frame retransmit cadence. Long enough that a zero-loss round's
// reports (5-35 ms on the reference host, busy periods included) arrive
// before the first RoundMark retransmit, so wire.control_retransmit_frac
// stays ~0 there. The daemon also sleeps this long after every batch's
// DoneAcks and in slot-map delivery, which bounds the batches a run fits.
constexpr int kRetryMs = 100;
constexpr int kFleetRetryMs = 50;

// Key-server loopback sessions never sit near these deadlines; they only
// turn a wedged session into a failed run instead of a hang.
constexpr int kRoundWaitMs = 20000;
constexpr int kIdleTimeoutMs = 20000;
constexpr int kElectTimeoutMs = 10000;

constexpr std::uint32_t kTree15 = 1u << 15;
constexpr std::uint32_t kTree20 = 1u << 20;

const std::array<Workload, 3> kWorkloads = {{
    {"steady-2e15",
     "2^15 clients, zero loss: round-1 burst, client decode and the report "
     "hop; wire rx and the client transport, no FEC or unicast",
     kTree15, 8192, 4096, 2, 0.0, 0.0, 8, 1, 1, false, 8},
    {"bigtree-2e20",
     "2^20-member tree, 4096 clients: marking, per-edge crypto and UKA "
     "dominate; the sharded pipeline on 4 shards and 2 workers",
     4096, kTree20 - 4096, 65536, 1, 0.0, 0.0, 8, 4, 2, false, 10},
    // No upstream loss: the daemon builds its unicast straggler set only
    // from uids named in the last multicast round's reports, so when the
    // shaper suppresses the NACK of every remaining straggler there, no
    // wave runs and those clients end in gave_up, a few per run and a
    // different few per seed (see NOTES.md). Restore up_loss = 0.05 once
    // the daemon also serves stragglers it only knows by count.
    {"lossy-replicated-2e15",
     "steady-2e15 with 15% down loss, 2 multicast rounds and a warm "
     "standby: parities, NACKs, rho, USR unicast, snapshot shipping",
     kTree15, 8192, 4096, 2, 0.15, 0.0, 2, 1, 1, true, 14},
}};

}  // namespace

std::optional<Workload> find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  return std::nullopt;
}

unsigned session_threads(const Workload& w) {
  const unsigned daemon = 1 + (w.workers > 1 ? w.workers : 0) +
                          (w.replicated ? 1 : 0);
  return daemon + w.sockets;
}

wire::DaemonConfig daemon_config(const Workload& w, std::uint64_t seed) {
  wire::DaemonConfig dc;
  dc.key_seed = wire::mix64(seed ^ 0x6B65795F73656564ull);
  dc.clients = w.clients;
  dc.churn_pool = w.pool;
  dc.batches = w.batches;
  dc.churn_joins = w.churn;
  dc.churn_leaves = w.churn;
  dc.round_wait_ms = kRoundWaitMs;
  dc.retry_ms = kRetryMs;
  dc.max_multicast_rounds = w.max_multicast_rounds;
  dc.shards = w.shards;
  dc.worker_threads = w.workers;
  dc.elect_timeout_ms = kElectTimeoutMs;
  return dc;
}

wire::FleetConfig fleet_config(const Workload& w, std::uint64_t seed,
                               unsigned socket_index) {
  const std::uint32_t base = w.clients / w.sockets;
  const std::uint32_t extra = w.clients % w.sockets;
  wire::FleetConfig fc;
  fc.first_uid = socket_index * base + std::min(socket_index, extra);
  fc.count = base + (socket_index < extra ? 1 : 0);
  fc.shaping.down_loss = w.down_loss;
  fc.shaping.up_loss = w.up_loss;
  fc.shaping.seed = wire::mix64(seed ^ 0x73686170655F7364ull);
  fc.retry_ms = kFleetRetryMs;
  fc.idle_timeout_ms = kIdleTimeoutMs;
  return fc;
}

}  // namespace perfbench
