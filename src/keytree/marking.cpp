#include "keytree/marking.h"

#include <algorithm>
#include <array>

#include "common/ensure.h"
#include "common/parallel.h"

namespace rekey::tree {

void Marker::defer_user_draw(MemberId m, NodeId slot) {
  draws_.push_back({tree_.keygen_.counter(), slot, m, true});
  tree_.keygen_.skip(1);
}

void Marker::defer_knode_draw(NodeId id, bool live) {
  // Dead draws (creation draws overwritten by the final refresh) still
  // consume their counter index — the stream position must match the
  // fully inline draw sequence exactly.
  if (live) draws_.push_back({tree_.keygen_.counter(), id, 0, false});
  tree_.keygen_.skip(1);
}

void Marker::materialize(rekey::TaskRunner* runner, std::size_t chunks) {
  const std::size_t n = draws_.size();
  if (n == 0) return;
  // Keys are computed in blocks through the batched kernels
  // (KeyGenerator::keys_at), then written home.
  auto fill_range = [&](std::size_t begin, std::size_t end) {
    constexpr std::size_t kBlock = 64;
    std::array<std::uint64_t, kBlock> counters;
    std::array<crypto::SymmetricKey, kBlock> keys;
    for (std::size_t b = begin; b < end; b += kBlock) {
      const std::size_t take = std::min(kBlock, end - b);
      for (std::size_t i = 0; i < take; ++i)
        counters[i] = draws_[b + i].counter;
      tree_.keygen_.keys_at({counters.data(), take}, {keys.data(), take});
      for (std::size_t i = 0; i < take; ++i) {
        const Draw& d = draws_[b + i];
        // Distinct draws target distinct nodes (one draw per member, one
        // refresh per k-node), so writes are disjoint across chunks. A
        // split may have moved a user placed this batch, so after one the
        // member's current slot is looked up.
        const NodeId id =
            d.is_member && split_ ? tree_.slot_of(d.member) : d.node;
        tree_.key_ref(id) = keys[i];
      }
    }
  };
  if (runner != nullptr && chunks > 1) {
    const std::size_t parts = std::min(chunks, n);
    runner->run(parts, [&](std::size_t c) {
      fill_range(n * c / parts, n * (c + 1) / parts);
    });
  } else {
    fill_range(0, n);
  }
  draws_.clear();
}

NodeId Marker::place_user(MemberId m, NodeId slot) {
  // Key-generator call order matters: one draw per placed user, exactly as
  // the inline implementation made them (determinism contract). The key
  // itself is deferred; the arena holds a placeholder until materialize.
  tree_.set_unode(slot, crypto::SymmetricKey{}, m);
  defer_user_draw(m, slot);
  return slot;
}

void Marker::prune_upwards(NodeId from_parent) {
  NodeId id = from_parent;
  while (true) {
    if (tree_.state_at(id) != KeyTree::kKNode) return;
    bool has_child = false;
    for (unsigned j = 0; j < tree_.degree_ && !has_child; ++j)
      has_child = tree_.state_at(child_of(id, j, tree_.degree_)) !=
                  KeyTree::kAbsent;
    if (has_child) return;
    tree_.remove_node(id);
    if (id == kRootId) return;
    id = parent_of(id, tree_.degree_);
  }
}

void Marker::create_ancestors(NodeId slot, bool live_draws) {
  NodeId id = slot;
  while (id != kRootId) {
    id = parent_of(id, tree_.degree_);
    const std::uint8_t s = tree_.state_at(id);
    if (s != KeyTree::kAbsent) {
      REKEY_ENSURE(s == KeyTree::kKNode);
      return;  // existing ancestors are all present (invariant I1)
    }
    tree_.set_knode(id, crypto::SymmetricKey{});
    defer_knode_draw(id, live_draws);
  }
}

void Marker::split_first_user(std::vector<Split>& splits,
                              std::vector<NodeId>& free_slots) {
  REKEY_ENSURE(free_slots.empty());
  const auto nk = tree_.max_knode_id();
  REKEY_ENSURE_MSG(nk.has_value(), "split on an empty tree");
  const NodeId s = *nk + 1;
  REKEY_ENSURE_MSG(tree_.state_at(s) == KeyTree::kUNode,
                   "split target is not a u-node");

  // The user at s descends to s's leftmost child; s becomes a k-node.
  // The key copy may be a placeholder when the user was placed this very
  // batch; split_ makes materialization resolve user draws by member, so
  // the real key still lands in the final slot.
  const crypto::SymmetricKey user_key = tree_.key_cref(s);
  const MemberId member = tree_.member_at(s);
  const NodeId dest = child_of(s, 0, tree_.degree_);
  tree_.remove_node(s);
  tree_.set_unode(dest, user_key, member);

  tree_.set_knode(s, crypto::SymmetricKey{});
  // s is in the changed set, so its creation draw is dead (refreshed).
  defer_knode_draw(s, false);
  splits.push_back({s, dest, member});
  split_ = true;

  // d-1 fresh sibling slots, stored descending so pop_back yields the
  // smallest id first ("in order from low to high").
  for (unsigned j = tree_.degree_ - 1; j >= 1; --j)
    free_slots.push_back(child_of(s, j, tree_.degree_));
}

std::vector<NodeId> Marker::structural_pass(std::span<const MemberId> joins,
                                            std::span<const MemberId> leaves,
                                            BatchUpdate& upd,
                                            bool& bootstrap) {
  draws_.clear();
  split_ = false;

  // Validation precedes any mutation; a leave's slot comes from the same
  // lookup that validates it.
  for (const MemberId m : joins)
    REKEY_ENSURE_MSG(!tree_.has_member(m), "join of an existing member");
  std::vector<std::pair<MemberId, NodeId>> departed;
  departed.reserve(leaves.size());
  for (const MemberId m : leaves) {
    const NodeId* slot = tree_.slot_of_member_.find(m);
    REKEY_ENSURE_MSG(slot != nullptr, "leave of an unknown member");
    departed.emplace_back(m, *slot);
  }

  std::vector<NodeId> changed_slots;
  std::vector<std::pair<MemberId, NodeId>> joined;
  joined.reserve(joins.size());

  // Bootstrap: an empty tree is (re)built directly; every k-node is new and
  // therefore changed. No final refresh — all draws are live.
  bootstrap = tree_.empty();
  if (bootstrap) {
    if (joins.empty()) return changed_slots;
    unsigned height = 1;
    std::size_t capacity = tree_.degree_;
    while (capacity < joins.size()) {
      capacity *= tree_.degree_;
      ++height;
    }
    const NodeId first_leaf = first_id_at_level(height, tree_.degree_);
    tree_.grow_dense(
        std::max<std::size_t>(256, first_leaf + joins.size()));
    for (std::size_t i = 0; i < joins.size(); ++i) {
      const NodeId slot = first_leaf + i;
      place_user(joins[i], slot);
      create_ancestors(slot, /*live_draws=*/true);
      joined.emplace_back(joins[i], slot);
      changed_slots.push_back(slot);
    }
    upd.joined.assign(std::move(joined));
    return changed_slots;
  }

  const std::size_t J = joins.size();
  const std::size_t L = leaves.size();

  std::vector<NodeId> departed_slots;
  departed_slots.reserve(L);
  for (const auto& [m, slot] : departed) departed_slots.push_back(slot);
  std::sort(departed_slots.begin(), departed_slots.end());
  upd.departed.assign(std::move(departed));

  changed_slots.reserve(std::max(J, L));
  std::vector<Split> splits;

  // Replace the min(J, L) smallest-id departed slots with joins. The new
  // member gets a fresh individual key (the old one is known to the
  // departed user).
  const std::size_t replaced = std::min(J, L);
  for (std::size_t i = 0; i < replaced; ++i) {
    const NodeId slot = departed_slots[i];
    tree_.remove_node(slot);
    place_user(joins[i], slot);
    joined.emplace_back(joins[i], slot);
    changed_slots.push_back(slot);
  }

  if (J < L) {
    // Remaining departures become n-nodes; childless k-nodes are pruned.
    for (std::size_t i = J; i < L; ++i) {
      const NodeId slot = departed_slots[i];
      tree_.remove_node(slot);
      changed_slots.push_back(slot);
      if (slot != kRootId) prune_upwards(parent_of(slot, tree_.degree_));
    }
  } else if (J > L) {
    // Free n-node slots in (nk, d*nk+d], ascending; stored descending so
    // pop_back is the smallest. Only J-L slots can ever be consumed, so
    // the scan stops early instead of enumerating the whole range.
    const std::size_t need = J - L;
    std::vector<NodeId> free_slots;
    {
      const auto nk = tree_.max_knode_id();
      REKEY_ENSURE(nk.has_value());
      const NodeId lo = *nk + 1;
      const NodeId hi = *nk * tree_.degree_ + tree_.degree_;
      std::vector<NodeId> ascending;
      ascending.reserve(std::min<std::size_t>(need, 64));
      for (NodeId id = lo; id <= hi && ascending.size() < need; ++id)
        if (tree_.state_at(id) == KeyTree::kAbsent) ascending.push_back(id);
      free_slots.assign(ascending.rbegin(), ascending.rend());
    }

    for (std::size_t i = L; i < J; ++i) {
      if (free_slots.empty()) split_first_user(splits, free_slots);
      const NodeId slot = free_slots.back();
      free_slots.pop_back();
      place_user(joins[i], slot);
      create_ancestors(slot, /*live_draws=*/false);
      joined.emplace_back(joins[i], slot);
      changed_slots.push_back(slot);
    }
  }

  // Users relocated by splits count as changed slots too. A user who
  // joined this batch and was split (maybe more than once) reports its
  // final slot: the relocations apply in order to the sorted joins.
  const auto by_member = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(joined.begin(), joined.end(), by_member);
  std::vector<std::pair<NodeId, NodeId>> moved;
  moved.reserve(splits.size());
  for (const Split& sp : splits) {
    const auto it = std::lower_bound(joined.begin(), joined.end(),
                                     std::pair{sp.member, NodeId{0}},
                                     by_member);
    if (it != joined.end() && it->first == sp.member) it->second = sp.to;
    moved.emplace_back(sp.from, sp.to);
    changed_slots.push_back(sp.to);
  }
  upd.joined.assign(std::move(joined));
  upd.moved.assign(std::move(moved));
  return changed_slots;
}

NodeIdSet Marker::changed_knodes(std::vector<NodeId> slots) const {
  // Replaces the frontier by its parents one level at a time, so a shared
  // ancestor is visited once per step, not once per slot. parent_of is
  // monotone in BFS ids, so a sorted frontier maps to a sorted parent
  // list and one adjacent-unique step removes the shared ancestors. The
  // walk passes through absent ids: pruning can leave gaps between a
  // changed slot and the k-nodes above it. Ancestors reached at different
  // steps (slots at different depths) may repeat across steps; the final
  // assign de-duplicates them.
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  std::vector<NodeId> knodes;
  std::vector<NodeId>& frontier = slots;
  while (!frontier.empty()) {
    std::size_t n = 0;
    for (const NodeId id : frontier) {
      if (id == kRootId) continue;
      const NodeId p = parent_of(id, tree_.degree_);
      if (n > 0 && frontier[n - 1] == p) continue;
      frontier[n++] = p;  // n never passes the read position
      if (tree_.state_at(p) == KeyTree::kKNode) knodes.push_back(p);
    }
    frontier.resize(n);
  }
  NodeIdSet out;
  out.assign(std::move(knodes));
  return out;
}

BatchUpdate Marker::apply(std::span<const MemberId> joins,
                          std::span<const MemberId> leaves,
                          rekey::TaskRunner* runner, std::size_t chunks) {
  BatchUpdate upd;
  bool bootstrap = false;
  upd.changed_knodes =
      changed_knodes(structural_pass(joins, leaves, upd, bootstrap));
  // Every changed k-node gets a fresh key, drawn in ascending id order.
  // Bootstrap creation draws are already live and final. Created k-nodes
  // are all ancestors of changed slots, so the walk finds them; a J<L
  // batch creates none, so pruning cannot remove a changed k-node.
  if (!bootstrap)
    for (const NodeId x : upd.changed_knodes)
      defer_knode_draw(x, /*live=*/true);
  materialize(runner, chunks);

  upd.max_kid = tree_.max_knode_id().value_or(0);
  if (!tree_.empty()) tree_.rebalance();
  return upd;
}

BatchUpdate Marker::run(std::span<const MemberId> joins,
                        std::span<const MemberId> leaves) {
  return apply(joins, leaves, nullptr, 1);
}

BatchUpdate Marker::run_sharded(std::span<const MemberId> joins,
                                std::span<const MemberId> leaves,
                                const ShardPlan& plan,
                                rekey::TaskRunner& runner,
                                ShardBatchStats* stats) {
  REKEY_ENSURE_MSG(plan.degree == tree_.degree_,
                   "shard plan degree does not match the tree");
  BatchUpdate upd = apply(joins, leaves, &runner, plan.shards);
  if (stats != nullptr) {
    stats->shard_changed.assign(plan.shards, 0);
    stats->aggregator_changed = 0;
    for (const NodeId x : upd.changed_knodes) {
      const unsigned s = plan.shard_of(x);
      if (s == ShardPlan::kAggregator)
        ++stats->aggregator_changed;
      else
        ++stats->shard_changed[s];
    }
  }
  return upd;
}

}  // namespace rekey::tree
