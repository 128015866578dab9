// Workload definitions: the three groups the benchmark drives through a
// real KeyServerDaemon over UDP loopback, and the configs generated from a
// workload and its seed. The daemon and the fleets see only these configs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "wire/daemon.h"
#include "wire/fleet.h"

namespace perfbench {

namespace wire = rekey::wire;

struct Workload {
  const char* name;
  const char* why;         // one line: what the workload stresses
  std::uint32_t clients;   // fleet clients, uids [0, clients)
  std::uint32_t pool;      // silent churn members
  std::uint32_t churn;     // joins == leaves per batch
  unsigned sockets;        // fleets, one socket and one load thread each
  double down_loss;
  double up_loss;
  int max_multicast_rounds;
  unsigned shards;
  unsigned workers;
  bool replicated;         // warm standby in the key-server process
  std::uint32_t batches;   // per session, the first one is warm-up
};

// Nullopt for an unknown name.
std::optional<Workload> find_workload(std::string_view name);

// Key-server and load threads a session of `w` runs (daemon main thread,
// shard workers, standby, one thread per fleet).
unsigned session_threads(const Workload& w);

wire::DaemonConfig daemon_config(const Workload& w, std::uint64_t seed);
wire::FleetConfig fleet_config(const Workload& w, std::uint64_t seed,
                               unsigned socket_index);

}  // namespace perfbench
