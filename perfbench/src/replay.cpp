#include "replay.h"

#include <memory>
#include <optional>

#include "common/parallel.h"
#include "keytree/keytree.h"
#include "keytree/marking.h"
#include "keytree/rekey_subtree.h"
#include "keytree/shard.h"
#include "keytree/shard_pipeline.h"
#include "packet/assign.h"
#include "probe.h"
#include "transport/server.h"

namespace perfbench {

namespace tree = rekey::tree;
namespace packet = rekey::packet;
namespace transport = rekey::transport;

std::vector<ReplayBatch> replay_batches(
    const wire::DaemonConfig& config, bool wide_slots,
    const std::vector<ObservedBurst>& observed) {
  transport::ProtocolConfig protocol = config.protocol;
  protocol.wide_slots = wide_slots;

  // Same shard plan and pool rule as the KeyServerDaemon constructor.
  std::optional<tree::ShardPlan> plan;
  std::unique_ptr<rekey::ThreadPool> pool;
  if (config.shards > 1 || config.worker_threads != 1) {
    plan = tree::ShardPlan::make(config.degree, std::max(1u, config.shards));
    if (config.worker_threads != 1)
      pool = std::make_unique<rekey::ThreadPool>(config.worker_threads);
  }

  tree::KeyTree key_tree(config.degree, config.key_seed);
  key_tree.populate(config.clients + config.churn_pool, 0);
  tree::MemberId next_member = config.clients + config.churn_pool;
  std::vector<tree::MemberId> churn;
  for (std::uint32_t m = 0; m < config.churn_pool; ++m)
    churn.push_back(config.clients + m);

  const std::size_t k = protocol.block_size;
  std::vector<ReplayBatch> out;
  tree::RekeyPayload payload;
  for (std::uint32_t b = 0; b < observed.size(); ++b) {
    const ObservedBurst& seen = observed[b];
    const std::uint8_t msg_id = static_cast<std::uint8_t>(b % 64);
    std::vector<tree::MemberId> joins;
    for (std::uint32_t j = 0; j < config.churn_joins; ++j)
      joins.push_back(next_member++);
    const std::size_t leave_n =
        std::min<std::size_t>(config.churn_leaves, churn.size());
    const std::vector<tree::MemberId> leaves(
        churn.begin(), churn.begin() + static_cast<std::ptrdiff_t>(leave_n));
    churn.erase(churn.begin(),
                churn.begin() + static_cast<std::ptrdiff_t>(leave_n));
    churn.insert(churn.end(), joins.begin(), joins.end());

    ReplayBatch r;
    rekey::TaskRunner runner(pool.get());
    tree::Marker marker(key_tree);
    double t = now_ms();
    const tree::BatchUpdate update =
        plan ? marker.run_sharded(joins, leaves, *plan, runner)
             : marker.run(joins, leaves);
    double t_next = now_ms();
    r.mark_ms = t_next - t;
    t = t_next;
    if (plan)
      tree::generate_rekey_payload_sharded(key_tree, update, msg_id, payload,
                                           *plan, runner, nullptr);
    else
      tree::generate_rekey_payload_into(key_tree, update, msg_id, payload);
    t_next = now_ms();
    r.payload_ms = t_next - t;
    t = t_next;
    packet::Assignment assignment =
        plan ? packet::assign_keys(payload, protocol.packet_size, *plan,
                                   runner, wide_slots)
             : packet::assign_keys(payload, protocol.packet_size, wide_slots);
    t_next = now_ms();
    r.assign_ms = t_next - t;
    r.edges = payload.encryptions.size();
    r.total_entries = assignment.total_entries;
    r.unique_encryptions = assignment.unique_encryptions;

    // Proactive parities per block = observed parities / blocks, where the
    // round-1 burst carries blocks * k ENC slots.
    const std::size_t blocks = seen.enc / k;
    const bool divisible = seen.enc % k == 0 && blocks > 0 &&
                           seen.parity % blocks == 0;
    const int per_block =
        divisible ? static_cast<int>(seen.parity / blocks) : 0;
    t = now_ms();
    transport::ServerTransport server(protocol, payload, std::move(assignment),
                                      per_block, msg_id);
    t_next = now_ms();
    r.server_init_ms = t_next - t;
    t = t_next;
    std::uint64_t stable = 0;
    std::uint64_t fresh = 0;
    server.for_each_round_wire(
        1, [&](const rekey::Bytes&) { ++stable; },
        [&](rekey::Bytes&&) { ++fresh; });
    r.round1_ms = now_ms() - t;
    r.enc_packets = server.enc_packets();
    r.slots = server.num_slots();
    r.parities = fresh;
    r.matches = divisible && stable == r.slots && r.slots == seen.enc &&
                r.enc_packets == seen.enc_unique && r.parities == seen.parity;
    out.push_back(r);
  }
  return out;
}

}  // namespace perfbench
