// Replay of a session's batches through the public layer functions, timed
// stage by stage: the per-layer half of the traced run.
//
// The replay copies the daemon's inputs exactly: the same key_seed, the
// same populate(clients + pool), the oldest-pool-members-leave churn
// rotation, msg_id = batch % 64 and the same shard plan and worker count.
// Its per-batch ENC packet, slot and round-1 parity counts must equal the
// ones the daemon put on the wire.
#pragma once

#include <cstdint>
#include <vector>

#include "wire/daemon.h"

namespace perfbench {

namespace wire = rekey::wire;

// Round-1 burst of one batch as the daemon sent it to one endpoint.
struct ObservedBurst {
  std::uint32_t enc = 0;         // ENC slots, padding included
  std::uint32_t enc_unique = 0;  // ENC packets
  std::uint32_t parity = 0;      // proactive parities
};

struct ReplayBatch {
  double mark_ms = 0.0;
  double payload_ms = 0.0;
  double assign_ms = 0.0;
  double server_init_ms = 0.0;
  double round1_ms = 0.0;  // for_each_round_wire(1): proactive FEC encoding
  std::uint64_t edges = 0;  // encryptions in the rekey subtree
  std::uint64_t total_entries = 0;       // ENC entries written
  std::uint64_t unique_encryptions = 0;  // distinct encryptions assigned
  std::uint64_t enc_packets = 0;
  std::uint64_t slots = 0;
  std::uint64_t parities = 0;
  bool matches = false;  // counts equal the observed burst
};

// `observed[b]` fixes batch b's proactive parities per block (the daemon's
// rho at that batch, which depends on NACK feedback the replay does not
// see) and is what the replay's counts are checked against.
std::vector<ReplayBatch> replay_batches(
    const wire::DaemonConfig& config, bool wide_slots,
    const std::vector<ObservedBurst>& observed);

}  // namespace perfbench
