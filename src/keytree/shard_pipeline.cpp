#include "keytree/shard_pipeline.h"

#include <algorithm>

#include "common/ensure.h"

namespace rekey::tree {

void generate_rekey_payload_sharded(const KeyTree& tree,
                                    const BatchUpdate& update,
                                    std::uint32_t msg_id, RekeyPayload& out,
                                    const ShardPlan& plan,
                                    rekey::TaskRunner& runner,
                                    ShardBatchStats* stats) {
  REKEY_ENSURE_MSG(plan.degree == tree.degree(),
                   "shard plan degree does not match the tree");
  const std::size_t chunks = std::size_t{plan.shards} * 4;
  detail::build_rekey_payload(tree, update, msg_id, out, runner,
                              {chunks, chunks});
  if (stats == nullptr) return;
  // Encryptions per owning shard of the changed k-node they carry. A
  // k-node's block is contiguous, so ownership is looked up once per block.
  const unsigned S = plan.shards;
  stats->shard_encryptions.assign(S + 1, 0);
  unsigned owner = 0;
  for (std::size_t i = 0; i < out.encryptions.size(); ++i) {
    const NodeId x = out.encryptions[i].target_id;
    if (i == 0 || x != out.encryptions[i - 1].target_id) {
      const unsigned s = plan.shard_of(x);
      owner = s == ShardPlan::kAggregator ? S : s;
    }
    ++stats->shard_encryptions[owner];
  }
}

void check_enc_id_disjointness(const RekeyPayload& payload,
                               const ShardPlan& plan) {
  std::vector<NodeId> ids;
  ids.reserve(payload.encryptions.size());
  for (const Encryption& e : payload.encryptions) {
    // Every id must have a well-defined owner (shard or aggregator); the
    // encrypting child of a changed k-node always does.
    const unsigned s = plan.shard_of(e.enc_id);
    REKEY_ENSURE(s == ShardPlan::kAggregator || s < plan.shards);
    ids.push_back(e.enc_id);
  }
  std::sort(ids.begin(), ids.end());
  REKEY_ENSURE_MSG(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
                   "duplicate encryption id across shards");
}

}  // namespace rekey::tree
