// The marking algorithm: periodic batch rekeying (paper §2.2, Appendix B).
//
// At the end of a rekey interval the key server has collected J join and L
// leave requests. The marking algorithm updates the key tree:
//
//   J = L : departed u-nodes are replaced by joined users;
//   J < L : the J smallest-id departed slots are replaced, the remaining
//           L-J become n-nodes, and k-nodes left without u-descendants are
//           pruned (become n-nodes);
//   J > L : departed slots are replaced first, then extra joins fill
//           n-node slots with ids in (nk, d*nk+d] from low to high; when
//           those run out, the u-node with id nk+1 is split — it becomes a
//           k-node and its user moves to its leftmost child — freeing d-1
//           sibling slots, repeatedly.
//
// Every k-node on a path from a changed slot to the root receives a fresh
// key; the rekey subtree (keytree/rekey_subtree.h) is derived from this
// changed set.
//
// Key draws are deferred: the structural pass assigns every draw its
// serial counter index (KeyGenerator::skip) and records where the key
// belongs; materialization then computes key_at(index) for each live
// draw and writes it to its final location. Because the stream is a pure
// function of (seed, counter), materialization order is irrelevant — the
// serial run materializes inline, the sharded run fans the draws out
// across a TaskRunner, and both produce the byte-identical tree a fully
// inline next() sequence would. Two draw classes exist:
//   * user draws, recorded with the placement slot and the MemberId; in a
//     batch that split, the member's final slot is looked up instead, so
//     a relocated user's key still lands where the user ended up;
//   * k-node draws, keyed by NodeId. A k-node creation draw is dead in a
//     non-bootstrap batch (every created k-node is in the changed set and
//     its key is overwritten by the final refresh), so only the counter
//     advances; in bootstrap there is no refresh and the draw is live.
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "common/ensure.h"
#include "keytree/keytree.h"
#include "keytree/shard.h"

namespace rekey {
class TaskRunner;
}

namespace rekey::tree {

// A sorted, de-duplicated set of node ids stored contiguously. Lookups are
// binary searches; construction is a batch sort+unique — the marking hot
// path never pays per-insert tree rebalancing.
class NodeIdSet {
 public:
  using const_iterator = std::vector<NodeId>::const_iterator;

  NodeIdSet() = default;

  // Takes ownership of arbitrary ids; sorts and de-duplicates.
  void assign(std::vector<NodeId> ids) {
    ids_ = std::move(ids);
    std::sort(ids_.begin(), ids_.end());
    ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
  }

  const_iterator begin() const { return ids_.begin(); }
  const_iterator end() const { return ids_.end(); }
  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  void clear() { ids_.clear(); }

  bool contains(NodeId id) const {
    return std::binary_search(ids_.begin(), ids_.end(), id);
  }
  std::size_t count(NodeId id) const { return contains(id) ? 1 : 0; }

  // Position of `id` in the ascending order, or size() when absent.
  std::size_t index_of(NodeId id) const {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (it == ids_.end() || *it != id) return ids_.size();
    return static_cast<std::size_t>(it - ids_.begin());
  }

  NodeId operator[](std::size_t i) const { return ids_[i]; }

  friend bool operator==(const NodeIdSet& a, const NodeIdSet& b) {
    return a.ids_ == b.ids_;
  }
  friend bool operator==(const NodeIdSet& a, const std::set<NodeId>& b) {
    return a.ids_.size() == b.size() &&
           std::equal(a.ids_.begin(), a.ids_.end(), b.begin());
  }
  friend bool operator==(const std::set<NodeId>& a, const NodeIdSet& b) {
    return b == a;
  }

 private:
  std::vector<NodeId> ids_;
};

// A sorted map stored as one contiguous vector of (key, value) pairs,
// the membership counterpart of NodeIdSet: filled once per batch, then
// read-only. Lookups are binary searches; iteration is in key order.
template <typename K, typename V>
class SortedPairMap {
 public:
  using value_type = std::pair<K, V>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  SortedPairMap() = default;

  // Takes ownership of pairs with distinct keys, in any order.
  void assign(std::vector<value_type> pairs) {
    const auto by_key = [](const value_type& a, const value_type& b) {
      return a.first < b.first;
    };
    if (!std::is_sorted(pairs.begin(), pairs.end(), by_key))
      std::sort(pairs.begin(), pairs.end(), by_key);
    REKEY_ENSURE_MSG(
        std::adjacent_find(pairs.begin(), pairs.end(),
                           [](const value_type& a, const value_type& b) {
                             return a.first == b.first;
                           }) == pairs.end(),
        "duplicate key in a batch map");
    pairs_ = std::move(pairs);
  }

  const_iterator begin() const { return pairs_.begin(); }
  const_iterator end() const { return pairs_.end(); }
  std::size_t size() const { return pairs_.size(); }
  bool empty() const { return pairs_.empty(); }

  const_iterator find(K key) const {
    const auto it = std::lower_bound(
        pairs_.begin(), pairs_.end(), key,
        [](const value_type& p, K k) { return p.first < k; });
    return it != pairs_.end() && it->first == key ? it : pairs_.end();
  }
  const V& at(K key) const {
    const auto it = find(key);
    REKEY_ENSURE_MSG(it != pairs_.end(), "key not in the batch map");
    return it->second;
  }

  friend bool operator==(const SortedPairMap& a, const SortedPairMap& b) {
    return a.pairs_ == b.pairs_;
  }
  friend bool operator==(const SortedPairMap& a, const std::map<K, V>& b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(),
                      [](const value_type& x, const auto& y) {
                        return x.first == y.first && x.second == y.second;
                      });
  }
  friend bool operator==(const std::map<K, V>& a, const SortedPairMap& b) {
    return b == a;
  }

 private:
  std::vector<value_type> pairs_;
};

// Outcome of one batch, consumed by encryption generation and by tests.
struct BatchUpdate {
  // k-nodes whose keys were refreshed (includes newly created k-nodes).
  NodeIdSet changed_knodes;
  // Members placed this batch, with their slots.
  SortedPairMap<MemberId, NodeId> joined;
  // Members removed this batch, with their former slots.
  SortedPairMap<MemberId, NodeId> departed;
  // Users relocated by splitting: old slot -> new slot.
  SortedPairMap<NodeId, NodeId> moved;
  // Maximum k-node id after the batch (the ENC packet maxKID field).
  NodeId max_kid = 0;
};

class Marker {
 public:
  explicit Marker(KeyTree& tree) : tree_(tree) {}

  // Applies one batch. `joins` are fresh member ids (must not be in the
  // tree); `leaves` are current member ids. Returns the update summary.
  BatchUpdate run(std::span<const MemberId> joins,
                  std::span<const MemberId> leaves);

  // Sharded variant, bit-identical to run() for every shard and thread
  // count. Marking itself is O(batch) and runs on the calling thread; the
  // deferred key draws then materialize in plan.shards chunks on
  // `runner`. When `stats` is non-null it is filled with the changed
  // k-nodes per owning shard (ShardPlan::shard_of).
  BatchUpdate run_sharded(std::span<const MemberId> joins,
                          std::span<const MemberId> leaves,
                          const ShardPlan& plan, rekey::TaskRunner& runner,
                          ShardBatchStats* stats = nullptr);

 private:
  // One deferred key draw: stream index plus the final destination.
  struct Draw {
    std::uint64_t counter = 0;
    NodeId node = 0;      // k-node, or the slot a user was placed at
    MemberId member = 0;  // user draws
    bool is_member = false;
  };

  // One split: the user `member` moved from slot `from` (now a k-node)
  // down to slot `to`.
  struct Split {
    NodeId from = 0;
    NodeId to = 0;
    MemberId member = 0;
  };

  NodeId place_user(MemberId m, NodeId slot);           // create u-node
  void prune_upwards(NodeId from_parent);               // drop empty k-nodes
  void create_ancestors(NodeId slot, bool live_draws);  // n-node -> k-node
  void split_first_user(std::vector<Split>& splits,
                        std::vector<NodeId>& free_slots);

  void defer_user_draw(MemberId m, NodeId slot);
  void defer_knode_draw(NodeId id, bool live);
  // Computes every recorded live draw via key_at and writes it home. With
  // a runner and chunks > 1 the draws fan out in fixed chunks (disjoint
  // destinations, so any execution order is safe).
  void materialize(rekey::TaskRunner* runner, std::size_t chunks);

  // The marking algorithm proper (draws deferred): mutates the tree,
  // fills upd's membership maps and returns every changed slot (with
  // duplicates, in any order). `bootstrap` is set when the tree was
  // empty and rebuilt directly.
  std::vector<NodeId> structural_pass(std::span<const MemberId> joins,
                                      std::span<const MemberId> leaves,
                                      BatchUpdate& upd, bool& bootstrap);
  // Every k-node on a path from a changed slot to the root, found by one
  // level-wise walk (see marking.cpp).
  NodeIdSet changed_knodes(std::vector<NodeId> slots) const;
  // Structural pass, changed set, refresh draws and materialization: the
  // body shared by run() and run_sharded().
  BatchUpdate apply(std::span<const MemberId> joins,
                    std::span<const MemberId> leaves,
                    rekey::TaskRunner* runner, std::size_t chunks);

  KeyTree& tree_;
  std::vector<Draw> draws_;
  bool split_ = false;  // this batch split a user (slots may have moved)
};

}  // namespace rekey::tree
