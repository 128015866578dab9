// Sharding plan for the key tree (million-user groups).
//
// The tree is partitioned at a fixed cut level L: the 2^s shards own the
// d^L cut-level subtrees in contiguous blocks, and an aggregator owns the
// top of the tree (every node strictly above the cut). L is the smallest
// level with d^L >= shards, so each shard owns at least one cut subtree
// and the aggregator region stays tiny (< d/(d-1) * d^L nodes).
//
// Ownership is a pure function of the node id: ids below the first
// cut-level id belong to the aggregator; any other id maps to the shard
// of its cut-level ancestor. A path from a slot to the root stays inside
// one cut subtree until it crosses the cut, so every changed k-node is
// owned by its slot's shard or by the aggregator; the per-shard counts in
// ShardBatchStats and the enc-id disjointness check rest on that.
//
// Determinism contract: sharding changes who computes what, never what is
// computed. The sharded pipeline must produce bit-identical payloads and
// packets to the serial one for every shard count and thread count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "keytree/keytree.h"

namespace rekey::tree {

struct ShardPlan {
  // Sentinel shard index for nodes above the cut (aggregator-owned).
  static constexpr unsigned kAggregator = ~0u;

  unsigned degree = 4;
  unsigned shards = 1;          // power of two, >= 1
  unsigned cut_level = 0;       // smallest L with d^L >= shards
  NodeId first_cut_id = 0;      // first_id_at_level(cut_level, degree)
  std::uint64_t cut_roots = 1;  // d^cut_level

  // Builds the plan; `shards` must be a power of two in [1, 256].
  static ShardPlan make(unsigned degree, unsigned shards);

  // Owner of a node id: kAggregator above the cut, else the shard of the
  // id's cut-level ancestor. Cut subtrees map to shards in contiguous
  // blocks (cut root index r -> shard r * shards / cut_roots).
  unsigned shard_of(NodeId id) const;

  // Independent tasks per batch phase: one per shard plus the aggregator.
  unsigned task_count() const { return shards + 1; }
};

// Per-batch observability of the sharded pipeline.
struct ShardBatchStats {
  // Changed k-nodes below the cut, per owning shard.
  std::vector<std::size_t> shard_changed;
  // Changed k-nodes at or above the cut (aggregator-owned).
  std::size_t aggregator_changed = 0;
  // Encryptions generated per shard (aggregator entry last).
  std::vector<std::size_t> shard_encryptions;
};

// Shard-aware invariant checks (the sharded counterpart of
// KeyTree::check_invariants): every id in shard s's set must be owned by
// s (no cross-shard NodeId leakage), and every id in the aggregator set
// must lie strictly above the cut (aggregator-only ownership of cut-level
// ancestors). Each set must be sorted and duplicate-free. Throws
// EnsureError on violation.
void check_shard_partition(const ShardPlan& plan,
                           std::span<const std::vector<NodeId>> shard_sets,
                           const std::vector<NodeId>& aggregator_set);

// Tree-level variant: verifies the base invariants plus plan/tree degree
// agreement and that ownership of every present node is well defined.
void check_sharded_tree(const KeyTree& tree, const ShardPlan& plan);

}  // namespace rekey::tree
