// Sharded rekey-payload generation (the batch pipeline's middle stage).
//
// The sharded pipeline runs the same generator as the serial one
// (keytree/rekey_subtree.h): every pass writes to output offsets fixed
// before it fans out, so the payload is byte-identical to the serial
// generator's for every shard count, thread count, and task execution
// order — the determinism contract sharding must keep. The passes are
// split into equal ranges of changed k-nodes and of user slots (4 per
// shard), not by shard ownership: the marking algorithm clusters a batch's
// churn, so ownership would put nearly all the work in one task.
//
// Encryption-id disjointness across shards holds by construction (an
// encryption id is the encrypting child's node id, each child has one
// parent, and node-id ownership is a partition); check_enc_id_disjointness
// verifies it, so per-shard outputs can be merged — and later parsed on
// the wire — without any shard tag or id-space offset.
#pragma once

#include "common/parallel.h"
#include "keytree/rekey_subtree.h"
#include "keytree/shard.h"

namespace rekey::tree {

// Fills `out` exactly as generate_rekey_payload_into(tree, update, msg_id,
// out) would, fanning the passes out on `runner`. When `stats` is
// non-null its shard_encryptions vector is filled with the encryptions
// per owning shard of the changed k-node they carry (entries [0, shards)
// per shard, entry [shards] for the aggregator).
void generate_rekey_payload_sharded(const KeyTree& tree,
                                    const BatchUpdate& update,
                                    std::uint32_t msg_id, RekeyPayload& out,
                                    const ShardPlan& plan,
                                    rekey::TaskRunner& runner,
                                    ShardBatchStats* stats = nullptr);

// Verifies that the payload's encryption ids are globally unique and that
// each id has a well-defined owning shard under `plan` — the property the
// transport layer relies on to keep (msg_id, enc_id) nonces and wire
// entries collision-free when shards' outputs are interleaved. Throws
// EnsureError on violation.
void check_enc_id_disjointness(const RekeyPayload& payload,
                               const ShardPlan& plan);

}  // namespace rekey::tree
