// Differential test: the flat arena-backed KeyTree + batched payload
// pipeline against an embedded copy of the original map/set-based
// implementation. Both draw from the same deterministic KeyGenerator, so
// any divergence — in tree structure, key material, changed sets, labels,
// user needs, or the exact encryption sequence — is a hard failure, byte
// for byte. This is the refactor's safety net: the rewrite must be
// observationally identical, not just "equivalent".
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "crypto/keys.h"
#include "keytree/ids.h"
#include "keytree/keytree.h"
#include "keytree/marking.h"
#include "keytree/rekey_subtree.h"
#include "keytree/shard.h"
#include "keytree/shard_pipeline.h"
#include "packet/assign.h"

namespace rekey::tree {
namespace {

// ---------------------------------------------------------------------------
// Legacy reference implementation (the pre-arena KeyTree/Marker/payload,
// verbatim modulo namespacing). Kept map/set-based on purpose: slow and
// obviously correct.
// ---------------------------------------------------------------------------
namespace legacy {

struct LegacyUpdate {
  std::set<NodeId> changed_knodes;
  std::map<MemberId, NodeId> joined;
  std::map<MemberId, NodeId> departed;
  std::map<NodeId, NodeId> moved;
  NodeId max_kid = 0;
};

class LegacyTree {
 public:
  LegacyTree(unsigned degree, std::uint64_t key_seed)
      : degree_(degree), keygen_(key_seed) {}

  // The same starting state as KeyTree::from_nodes (draw counter 0).
  LegacyTree(unsigned degree, std::uint64_t key_seed,
             const std::map<NodeId, Node>& nodes)
      : LegacyTree(degree, key_seed) {
    nodes_ = nodes;
    for (const auto& [id, n] : nodes) {
      if (n.kind == NodeKind::KNode) {
        knode_ids_.insert(id);
      } else {
        unode_ids_.insert(id);
        slot_of_member_.emplace(n.member, id);
      }
    }
  }

  unsigned degree() const { return degree_; }
  bool empty() const { return nodes_.empty(); }
  bool contains(NodeId id) const { return nodes_.count(id) != 0; }
  const Node& node(NodeId id) const { return nodes_.at(id); }
  bool has_member(MemberId m) const { return slot_of_member_.count(m) != 0; }
  NodeId slot_of(MemberId m) const { return slot_of_member_.at(m); }
  const std::map<NodeId, Node>& nodes() const { return nodes_; }

  std::optional<NodeId> max_knode_id() const {
    if (knode_ids_.empty()) return std::nullopt;
    return *knode_ids_.rbegin();
  }

  std::vector<NodeId> user_slots() const {
    return {unode_ids_.begin(), unode_ids_.end()};
  }

  // --- the original Marker, folded into the tree for brevity -------------

  NodeId place_user(MemberId m, NodeId slot) {
    Node u;
    u.kind = NodeKind::UNode;
    u.key = keygen_.next();
    u.member = m;
    nodes_.emplace(slot, u);
    unode_ids_.insert(slot);
    slot_of_member_.emplace(m, slot);
    return slot;
  }

  void remove_user_slot(NodeId slot) {
    const auto it = nodes_.find(slot);
    slot_of_member_.erase(it->second.member);
    unode_ids_.erase(slot);
    nodes_.erase(it);
  }

  void prune_upwards(NodeId from_parent) {
    NodeId id = from_parent;
    while (true) {
      const auto it = nodes_.find(id);
      if (it == nodes_.end() || it->second.kind != NodeKind::KNode) return;
      bool has_child = false;
      for (unsigned j = 0; j < degree_ && !has_child; ++j)
        has_child = nodes_.count(child_of(id, j, degree_)) != 0;
      if (has_child) return;
      knode_ids_.erase(id);
      nodes_.erase(it);
      if (id == kRootId) return;
      id = parent_of(id, degree_);
    }
  }

  void create_ancestors(NodeId slot, LegacyUpdate& upd) {
    NodeId id = slot;
    while (id != kRootId) {
      id = parent_of(id, degree_);
      if (nodes_.count(id)) return;
      Node k;
      k.kind = NodeKind::KNode;
      k.key = keygen_.next();
      nodes_.emplace(id, k);
      knode_ids_.insert(id);
      upd.changed_knodes.insert(id);
    }
  }

  void split_first_user(LegacyUpdate& upd, std::vector<NodeId>& free_slots) {
    const auto nk = max_knode_id();
    const NodeId s = *nk + 1;
    const auto it = nodes_.find(s);
    const Node user = it->second;
    const NodeId dest = child_of(s, 0, degree_);
    unode_ids_.erase(s);
    nodes_.erase(it);
    nodes_.emplace(dest, user);
    unode_ids_.insert(dest);
    slot_of_member_[user.member] = dest;

    Node k;
    k.kind = NodeKind::KNode;
    k.key = keygen_.next();
    nodes_.emplace(s, k);
    knode_ids_.insert(s);
    upd.changed_knodes.insert(s);
    upd.moved[s] = dest;
    const auto jit = upd.joined.find(user.member);
    if (jit != upd.joined.end()) jit->second = dest;

    for (unsigned j = degree_ - 1; j >= 1; --j)
      free_slots.push_back(child_of(s, j, degree_));
  }

  LegacyUpdate run(std::span<const MemberId> joins,
                   std::span<const MemberId> leaves) {
    LegacyUpdate upd;
    if (empty()) {
      if (joins.empty()) return upd;
      unsigned height = 1;
      std::size_t capacity = degree_;
      while (capacity < joins.size()) {
        capacity *= degree_;
        ++height;
      }
      const NodeId first_leaf = first_id_at_level(height, degree_);
      for (std::size_t i = 0; i < joins.size(); ++i) {
        const NodeId slot = first_leaf + i;
        place_user(joins[i], slot);
        create_ancestors(slot, upd);
        upd.joined.emplace(joins[i], slot);
      }
      upd.max_kid = max_knode_id().value_or(0);
      return upd;
    }

    const std::size_t J = joins.size();
    const std::size_t L = leaves.size();

    std::vector<NodeId> departed;
    for (const MemberId m : leaves) {
      const NodeId slot = slot_of(m);
      departed.push_back(slot);
      upd.departed.emplace(m, slot);
    }
    std::sort(departed.begin(), departed.end());

    std::vector<NodeId> changed_slots;
    const std::size_t replaced = std::min(J, L);
    for (std::size_t i = 0; i < replaced; ++i) {
      const NodeId slot = departed[i];
      remove_user_slot(slot);
      place_user(joins[i], slot);
      upd.joined.emplace(joins[i], slot);
      changed_slots.push_back(slot);
    }

    if (J < L) {
      for (std::size_t i = J; i < L; ++i) {
        const NodeId slot = departed[i];
        remove_user_slot(slot);
        changed_slots.push_back(slot);
        if (slot != kRootId) prune_upwards(parent_of(slot, degree_));
      }
    } else if (J > L) {
      std::vector<NodeId> free_slots;
      {
        const auto nk = max_knode_id();
        const NodeId lo = *nk + 1;
        const NodeId hi = *nk * degree_ + degree_;
        std::vector<NodeId> ascending;
        NodeId next = lo;
        for (auto it = unode_ids_.lower_bound(lo);
             it != unode_ids_.end() && *it <= hi; ++it) {
          for (NodeId id = next; id < *it; ++id) ascending.push_back(id);
          next = *it + 1;
        }
        for (NodeId id = next; id <= hi; ++id) ascending.push_back(id);
        free_slots.assign(ascending.rbegin(), ascending.rend());
      }
      for (std::size_t i = L; i < J; ++i) {
        if (free_slots.empty()) split_first_user(upd, free_slots);
        const NodeId slot = free_slots.back();
        free_slots.pop_back();
        place_user(joins[i], slot);
        create_ancestors(slot, upd);
        upd.joined.emplace(joins[i], slot);
        changed_slots.push_back(slot);
      }
    }

    for (const auto& [old_slot, new_slot] : upd.moved)
      changed_slots.push_back(new_slot);

    for (const NodeId slot : changed_slots) {
      NodeId id = slot;
      while (id != kRootId) {
        id = parent_of(id, degree_);
        const auto it = nodes_.find(id);
        if (it != nodes_.end() && it->second.kind == NodeKind::KNode)
          upd.changed_knodes.insert(id);
      }
    }
    for (const NodeId x : upd.changed_knodes)
      nodes_.at(x).key = keygen_.next();

    upd.max_kid = max_knode_id().value_or(0);
    return upd;
  }

 private:
  unsigned degree_;
  crypto::KeyGenerator keygen_;
  std::map<NodeId, Node> nodes_;
  std::set<NodeId> knode_ids_;
  std::set<NodeId> unode_ids_;
  std::map<MemberId, NodeId> slot_of_member_;
};

struct LegacyPayload {
  std::vector<Encryption> encryptions;
  std::map<NodeId, std::vector<std::uint32_t>> user_needs;
  std::map<NodeId, Label> labels;
  NodeId max_kid = 0;
};

LegacyPayload generate_payload(const LegacyTree& tree,
                               const LegacyUpdate& update,
                               std::uint32_t msg_id) {
  LegacyPayload out;
  out.max_kid = update.max_kid;
  const unsigned d = tree.degree();

  for (const NodeId x : update.changed_knodes) out.labels[x] = Label::Join;
  auto taint = [&](NodeId slot) {
    NodeId id = slot;
    while (id != kRootId) {
      id = parent_of(id, d);
      const auto it = out.labels.find(id);
      if (it != out.labels.end()) it->second = Label::Replace;
    }
  };
  for (const auto& [member, slot] : update.departed) taint(slot);
  for (const auto& [old_slot, new_slot] : update.moved) {
    taint(old_slot);
    const auto it = out.labels.find(old_slot);
    if (it != out.labels.end()) it->second = Label::Replace;
  }

  std::vector<NodeId> order(update.changed_knodes.begin(),
                            update.changed_knodes.end());
  std::sort(order.begin(), order.end(), std::greater<NodeId>());

  std::map<NodeId, std::uint32_t> index_of_enc;
  for (const NodeId x : order) {
    const crypto::SymmetricKey& new_key = tree.node(x).key;
    for (unsigned j = 0; j < d; ++j) {
      const NodeId c = child_of(x, j, d);
      if (!tree.contains(c)) continue;
      Encryption e;
      e.enc_id = c;
      e.target_id = x;
      e.payload = crypto::encrypt_key(tree.node(c).key, new_key, msg_id, c);
      index_of_enc.emplace(
          c, static_cast<std::uint32_t>(out.encryptions.size()));
      out.encryptions.push_back(e);
    }
  }

  for (const NodeId slot : tree.user_slots()) {
    std::vector<std::uint32_t> needs;
    for (NodeId c = slot; c != kRootId; c = parent_of(c, d)) {
      if (update.changed_knodes.count(parent_of(c, d)))
        needs.push_back(index_of_enc.at(c));
    }
    if (!needs.empty()) out.user_needs.emplace(slot, std::move(needs));
  }
  return out;
}

}  // namespace legacy

// ---------------------------------------------------------------------------
// Comparison helpers
// ---------------------------------------------------------------------------

void expect_trees_equal(const KeyTree& flat, const legacy::LegacyTree& ref,
                        int batch) {
  const std::map<NodeId, Node> a = flat.nodes();
  const std::map<NodeId, Node>& b = ref.nodes();
  ASSERT_EQ(a.size(), b.size()) << "node count diverged at batch " << batch;
  auto ia = a.begin();
  for (auto ib = b.begin(); ib != b.end(); ++ia, ++ib) {
    ASSERT_EQ(ia->first, ib->first) << "node id diverged at batch " << batch;
    ASSERT_EQ(ia->second.kind, ib->second.kind)
        << "kind of node " << ia->first << " diverged at batch " << batch;
    ASSERT_EQ(ia->second.key, ib->second.key)
        << "key of node " << ia->first << " diverged at batch " << batch;
    if (ia->second.kind == NodeKind::UNode) {
      ASSERT_EQ(ia->second.member, ib->second.member)
          << "member at node " << ia->first << " diverged at batch " << batch;
    }
  }
}

void expect_updates_equal(const BatchUpdate& a, const legacy::LegacyUpdate& b,
                          int batch) {
  EXPECT_TRUE(a.changed_knodes == b.changed_knodes)
      << "changed_knodes diverged at batch " << batch;
  EXPECT_EQ(a.joined, b.joined) << "joined diverged at batch " << batch;
  EXPECT_EQ(a.departed, b.departed) << "departed diverged at batch " << batch;
  EXPECT_EQ(a.moved, b.moved) << "moved diverged at batch " << batch;
  EXPECT_EQ(a.max_kid, b.max_kid) << "max_kid diverged at batch " << batch;
}

void expect_payloads_equal(const RekeyPayload& a,
                           const legacy::LegacyPayload& b, int batch) {
  ASSERT_EQ(a.encryptions.size(), b.encryptions.size())
      << "encryption count diverged at batch " << batch;
  for (std::size_t i = 0; i < a.encryptions.size(); ++i) {
    ASSERT_EQ(a.encryptions[i].enc_id, b.encryptions[i].enc_id)
        << "enc_id at position " << i << ", batch " << batch;
    ASSERT_EQ(a.encryptions[i].target_id, b.encryptions[i].target_id)
        << "target_id at position " << i << ", batch " << batch;
    ASSERT_EQ(a.encryptions[i].payload, b.encryptions[i].payload)
        << "ciphertext at position " << i << ", batch " << batch;
  }
  EXPECT_EQ(a.max_kid, b.max_kid);

  ASSERT_EQ(a.user_needs.size(), b.user_needs.size())
      << "user_needs size diverged at batch " << batch;
  auto ib = b.user_needs.begin();
  for (const auto& [slot, needs] : a.user_needs) {
    ASSERT_EQ(slot, ib->first) << "user_needs slot order, batch " << batch;
    ASSERT_EQ(std::vector<std::uint32_t>(needs.begin(), needs.end()),
              ib->second)
        << "needs of slot " << slot << ", batch " << batch;
    ++ib;
  }

  ASSERT_EQ(a.labels.size(), b.labels.size())
      << "label count diverged at batch " << batch;
  auto lb = b.labels.begin();
  for (const auto& [id, label] : a.labels) {
    ASSERT_EQ(id, lb->first) << "label id order, batch " << batch;
    ASSERT_EQ(label, lb->second) << "label of " << id << ", batch " << batch;
    ++lb;
  }
}

// One scripted churn sequence: bootstrap join, then `batches` random
// J/L mixes (including J=0, L=0, J=L, and heavy-join batches that force
// splits). Applied in lockstep to both implementations.
void run_differential(unsigned degree, std::uint64_t seed, int batches,
                      std::size_t initial, rekey::ThreadPool* pool) {
  Rng rng(seed);
  KeyTree flat(degree, seed);
  legacy::LegacyTree ref(degree, seed);
  Marker marker(flat);

  MemberId next_member = 0;
  std::vector<MemberId> population;

  RekeyPayload flat_payload;  // reused across batches, as the service does
  for (int batch = 0; batch < batches; ++batch) {
    std::vector<MemberId> joins, leaves;
    if (batch == 0) {
      for (std::size_t i = 0; i < initial; ++i) joins.push_back(next_member++);
    } else {
      // Mix regimes: 0=churn J==L, 1=leave-heavy, 2=join-heavy (splits).
      const std::uint64_t regime = rng.next_in(0, 2);
      const std::size_t n = population.size();
      std::size_t J = 0, L = 0;
      if (regime == 0) {
        J = L = static_cast<std::size_t>(rng.next_in(0, n / 4));
      } else if (regime == 1) {
        L = static_cast<std::size_t>(rng.next_in(1, 1 + n / 2));
        J = static_cast<std::size_t>(rng.next_in(0, L));
      } else {
        J = static_cast<std::size_t>(rng.next_in(1, 1 + n / 2));
        L = static_cast<std::size_t>(rng.next_in(0, std::min(J, n / 4)));
      }
      L = std::min(L, n);
      for (const auto pick : rng.sample_without_replacement(n, L))
        leaves.push_back(population[pick]);
      for (std::size_t i = 0; i < J; ++i) joins.push_back(next_member++);
    }

    const BatchUpdate upd = marker.run(joins, leaves);
    const legacy::LegacyUpdate ref_upd = ref.run(joins, leaves);
    expect_updates_equal(upd, ref_upd, batch);
    expect_trees_equal(flat, ref, batch);
    if (::testing::Test::HasFatalFailure()) return;
    flat.check_invariants();

    const auto msg_id = static_cast<std::uint32_t>(batch + 1);
    generate_rekey_payload_into(flat, upd, msg_id, flat_payload, pool);
    const legacy::LegacyPayload ref_payload =
        legacy::generate_payload(ref, ref_upd, msg_id);
    expect_payloads_equal(flat_payload, ref_payload, batch);
    if (::testing::Test::HasFatalFailure()) return;

    // Update the scripted population for the next round.
    std::set<MemberId> gone(leaves.begin(), leaves.end());
    std::vector<MemberId> next;
    for (const MemberId m : population)
      if (!gone.count(m)) next.push_back(m);
    next.insert(next.end(), joins.begin(), joins.end());
    population = std::move(next);
    ASSERT_EQ(flat.num_users(), population.size());
  }
}

// ---------------------------------------------------------------------------
// Tests: 200 seeded batches total across degrees, serial payload.
// ---------------------------------------------------------------------------

TEST(KeyTreeDifferential, Degree4SerialChurn) {
  run_differential(/*degree=*/4, /*seed=*/0xD1FF01, /*batches=*/100,
                   /*initial=*/64, /*pool=*/nullptr);
}

TEST(KeyTreeDifferential, Degree2SerialChurn) {
  run_differential(2, 0xD1FF02, 50, 33, nullptr);
}

TEST(KeyTreeDifferential, Degree8SerialChurn) {
  run_differential(8, 0xD1FF08, 50, 100, nullptr);
}

TEST(KeyTreeDifferential, SmallGroupsAndFullDepartures) {
  // Tiny populations exercise root-adjacent splits and total-leave +
  // re-bootstrap paths.
  run_differential(4, 0xD1FF10, 40, 2, nullptr);
  run_differential(2, 0xD1FF11, 40, 1, nullptr);
}

// The parallel payload path must be bit-identical to serial; run the same
// scripted sequences through a thread pool. REKEY_THREADS (when set, e.g.
// 8 in CI) sizes the pool; at 1 the pool runs inline and this repeats the
// serial test.
TEST(KeyTreeDifferential, ParallelPayloadMatchesLegacy) {
  rekey::ThreadPool pool(0);
  run_differential(4, 0xD1FF01, 100, 64, &pool);
}

TEST(KeyTreeDifferential, ParallelPayloadEightWorkers) {
  rekey::ThreadPool pool(8);
  run_differential(4, 0xD1FF20, 60, 300, &pool);
  run_differential(8, 0xD1FF21, 30, 200, &pool);
}

// ---------------------------------------------------------------------------
// Sharded-vs-serial differential: the same scripted churn drives two
// identical trees, one through the serial pipeline (Marker::run ->
// generate_rekey_payload_into -> assign_keys) and one through the sharded
// pipeline (run_sharded -> generate_rekey_payload_sharded -> sharded
// assign_keys). The determinism contract says sharding changes who
// computes what, never what is computed: every artifact — tree nodes and
// key material, the draw-stream counter, the batch update, payload bytes,
// and the assigned packets — must match exactly for every shard count and
// thread count.
// ---------------------------------------------------------------------------

void expect_flat_trees_equal(const KeyTree& a, const KeyTree& b, int batch) {
  EXPECT_EQ(a.key_generator().counter(), b.key_generator().counter())
      << "draw-stream counter diverged at batch " << batch;
  const std::map<NodeId, Node> na = a.nodes();
  const std::map<NodeId, Node> nb = b.nodes();
  ASSERT_EQ(na.size(), nb.size()) << "node count diverged at batch " << batch;
  auto ib = nb.begin();
  for (const auto& [id, n] : na) {
    ASSERT_EQ(id, ib->first) << "node id diverged at batch " << batch;
    ASSERT_EQ(n.kind, ib->second.kind)
        << "kind of node " << id << " diverged at batch " << batch;
    ASSERT_EQ(n.key, ib->second.key)
        << "key of node " << id << " diverged at batch " << batch;
    if (n.kind == NodeKind::UNode) {
      ASSERT_EQ(n.member, ib->second.member)
          << "member at node " << id << " diverged at batch " << batch;
    }
    ++ib;
  }
}

void expect_batch_updates_equal(const BatchUpdate& a, const BatchUpdate& b,
                                int batch) {
  EXPECT_TRUE(a.changed_knodes == b.changed_knodes)
      << "changed_knodes diverged at batch " << batch;
  EXPECT_EQ(a.joined, b.joined) << "joined diverged at batch " << batch;
  EXPECT_EQ(a.departed, b.departed) << "departed diverged at batch " << batch;
  EXPECT_EQ(a.moved, b.moved) << "moved diverged at batch " << batch;
  EXPECT_EQ(a.max_kid, b.max_kid) << "max_kid diverged at batch " << batch;
}

void expect_flat_payloads_equal(const RekeyPayload& a, const RekeyPayload& b,
                                int batch) {
  ASSERT_EQ(a.encryptions.size(), b.encryptions.size())
      << "encryption count diverged at batch " << batch;
  for (std::size_t i = 0; i < a.encryptions.size(); ++i) {
    ASSERT_EQ(a.encryptions[i].enc_id, b.encryptions[i].enc_id)
        << "enc_id at position " << i << ", batch " << batch;
    ASSERT_EQ(a.encryptions[i].target_id, b.encryptions[i].target_id)
        << "target_id at position " << i << ", batch " << batch;
    ASSERT_EQ(a.encryptions[i].payload, b.encryptions[i].payload)
        << "ciphertext at position " << i << ", batch " << batch;
  }
  EXPECT_EQ(a.max_kid, b.max_kid) << "max_kid diverged at batch " << batch;

  ASSERT_EQ(a.user_needs.size(), b.user_needs.size())
      << "user_needs size diverged at batch " << batch;
  auto ib = b.user_needs.begin();
  for (const auto& [slot, needs] : a.user_needs) {
    const auto [slot_b, needs_b] = *ib;
    ASSERT_EQ(slot, slot_b) << "user_needs slot order, batch " << batch;
    ASSERT_TRUE(std::equal(needs.begin(), needs.end(), needs_b.begin(),
                           needs_b.end()))
        << "needs of slot " << slot << ", batch " << batch;
    ++ib;
  }

  ASSERT_EQ(a.labels.size(), b.labels.size())
      << "label count diverged at batch " << batch;
  auto lb = b.labels.begin();
  for (const auto& [id, label] : a.labels) {
    ASSERT_EQ(id, lb->first) << "label id order, batch " << batch;
    ASSERT_EQ(label, lb->second) << "label of " << id << ", batch " << batch;
    ++lb;
  }
}

void expect_assignments_equal(const packet::Assignment& a,
                              const packet::Assignment& b, int batch) {
  ASSERT_EQ(a.packets.size(), b.packets.size())
      << "packet count diverged at batch " << batch;
  for (std::size_t p = 0; p < a.packets.size(); ++p) {
    const packet::EncPacket& pa = a.packets[p];
    const packet::EncPacket& pb = b.packets[p];
    ASSERT_EQ(pa.msg_id, pb.msg_id) << "packet " << p << ", batch " << batch;
    ASSERT_EQ(pa.max_kid, pb.max_kid) << "packet " << p << ", batch " << batch;
    ASSERT_EQ(pa.frm_id, pb.frm_id) << "packet " << p << ", batch " << batch;
    ASSERT_EQ(pa.to_id, pb.to_id) << "packet " << p << ", batch " << batch;
    ASSERT_TRUE(pa.entries == pb.entries)
        << "entries of packet " << p << " diverged at batch " << batch;
  }
  EXPECT_EQ(a.total_entries, b.total_entries) << "batch " << batch;
  EXPECT_EQ(a.unique_encryptions, b.unique_encryptions) << "batch " << batch;
}

// What each non-bootstrap batch of the script should look like.
enum class ShardScript {
  Mixed,             // the serial differential's three churn regimes
  SingleShardDirty,  // J == L leaves confined to one randomly chosen shard
};

void run_sharded_differential(unsigned degree, std::uint64_t seed,
                              int batches, std::size_t initial,
                              unsigned shards, unsigned pool_threads,
                              ShardScript script = ShardScript::Mixed) {
  Rng rng(seed);
  KeyTree serial_tree(degree, seed);
  KeyTree sharded_tree(degree, seed);
  Marker serial_marker(serial_tree);
  Marker sharded_marker(sharded_tree);
  const ShardPlan plan = ShardPlan::make(degree, shards);
  std::unique_ptr<rekey::ThreadPool> pool;
  if (pool_threads != 1)
    pool = std::make_unique<rekey::ThreadPool>(pool_threads);
  rekey::TaskRunner runner(pool.get());

  MemberId next_member = 0;
  std::vector<MemberId> population;
  RekeyPayload serial_payload, sharded_payload;

  for (int batch = 0; batch < batches; ++batch) {
    std::vector<MemberId> joins, leaves;
    unsigned dirty_shard = ShardPlan::kAggregator;
    if (batch == 0) {
      for (std::size_t i = 0; i < initial; ++i) joins.push_back(next_member++);
    } else if (script == ShardScript::SingleShardDirty &&
               !population.empty()) {
      // Leaves confined to one cut subtree's shard, replaced in place
      // (J == L reuses the departed slots), so every below-cut changed
      // k-node belongs to that single shard.
      dirty_shard = static_cast<unsigned>(rng.next_in(0, plan.shards - 1));
      std::vector<MemberId> in_target;
      for (const MemberId m : population)
        if (plan.shard_of(serial_tree.slot_of(m)) == dirty_shard)
          in_target.push_back(m);
      const std::size_t L = in_target.empty()
                                ? 0
                                : static_cast<std::size_t>(rng.next_in(
                                      1, in_target.size()));
      for (const auto pick :
           rng.sample_without_replacement(in_target.size(), L))
        leaves.push_back(in_target[pick]);
      for (std::size_t i = 0; i < L; ++i) joins.push_back(next_member++);
    } else {
      const std::uint64_t regime = rng.next_in(0, 2);
      const std::size_t n = population.size();
      std::size_t J = 0, L = 0;
      if (regime == 0) {
        J = L = static_cast<std::size_t>(rng.next_in(0, n / 4));
      } else if (regime == 1) {
        L = static_cast<std::size_t>(rng.next_in(1, 1 + n / 2));
        J = static_cast<std::size_t>(rng.next_in(0, L));
      } else {
        J = static_cast<std::size_t>(rng.next_in(1, 1 + n / 2));
        L = static_cast<std::size_t>(rng.next_in(0, std::min(J, n / 4)));
      }
      L = std::min(L, n);
      for (const auto pick : rng.sample_without_replacement(n, L))
        leaves.push_back(population[pick]);
      for (std::size_t i = 0; i < J; ++i) joins.push_back(next_member++);
    }

    const BatchUpdate upd_a = serial_marker.run(joins, leaves);
    ShardBatchStats mark_stats;
    const BatchUpdate upd_b =
        sharded_marker.run_sharded(joins, leaves, plan, runner, &mark_stats);
    expect_batch_updates_equal(upd_a, upd_b, batch);
    expect_flat_trees_equal(serial_tree, sharded_tree, batch);
    if (::testing::Test::HasFatalFailure()) return;
    check_sharded_tree(sharded_tree, plan);

    // The per-shard stats partition the changed set exactly.
    std::size_t changed_total = mark_stats.aggregator_changed;
    for (const std::size_t c : mark_stats.shard_changed) changed_total += c;
    ASSERT_EQ(changed_total, upd_b.changed_knodes.size())
        << "shard stats do not partition the changed set at batch " << batch;
    if (dirty_shard != ShardPlan::kAggregator) {
      for (unsigned s = 0; s < plan.shards; ++s) {
        if (s == dirty_shard) continue;
        EXPECT_EQ(mark_stats.shard_changed[s], 0u)
            << "single-shard-dirty batch " << batch << " touched shard " << s;
      }
    }

    const auto msg_id = static_cast<std::uint32_t>(batch + 1);
    generate_rekey_payload_into(serial_tree, upd_a, msg_id, serial_payload);
    ShardBatchStats pay_stats;
    generate_rekey_payload_sharded(sharded_tree, upd_b, msg_id,
                                   sharded_payload, plan, runner, &pay_stats);
    expect_flat_payloads_equal(serial_payload, sharded_payload, batch);
    if (::testing::Test::HasFatalFailure()) return;
    check_enc_id_disjointness(sharded_payload, plan);
    std::size_t enc_total = 0;
    for (const std::size_t c : pay_stats.shard_encryptions) enc_total += c;
    ASSERT_EQ(enc_total, sharded_payload.encryptions.size())
        << "shard stats do not partition the encryptions at batch " << batch;

    const packet::Assignment serial_asn =
        packet::assign_keys(serial_payload, 1027);
    const packet::Assignment sharded_asn =
        packet::assign_keys(sharded_payload, 1027, plan, runner);
    expect_assignments_equal(serial_asn, sharded_asn, batch);
    if (::testing::Test::HasFatalFailure()) return;

    std::set<MemberId> gone(leaves.begin(), leaves.end());
    std::vector<MemberId> next;
    for (const MemberId m : population)
      if (!gone.count(m)) next.push_back(m);
    next.insert(next.end(), joins.begin(), joins.end());
    population = std::move(next);
    ASSERT_EQ(sharded_tree.num_users(), population.size());
  }
}

// The acceptance matrix: shards {1,2,4,8} x worker threads {1,8}. A pool
// of 8 with fewer shards also exercises partially idle task slots.
TEST(ShardedDifferential, ShardByThreadMatrix) {
  for (const unsigned shards : {1u, 2u, 4u, 8u}) {
    for (const unsigned threads : {1u, 8u}) {
      run_sharded_differential(/*degree=*/4,
                               /*seed=*/0x5AD0 + shards * 16 + threads,
                               /*batches=*/20, /*initial=*/128, shards,
                               threads);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ShardedDifferential, SingleShardDirtyBatches) {
  run_sharded_differential(4, 0x5AD100, 30, 256, 4, 1,
                           ShardScript::SingleShardDirty);
  run_sharded_differential(4, 0x5AD101, 30, 256, 8, 8,
                           ShardScript::SingleShardDirty);
}

// Tiny trees under a deep cut: most (or all) slots live at or above the
// cut level, so the aggregator owns nearly everything and batches
// straddle the cut constantly. Also covers total-leave + re-bootstrap
// through the sharded path.
TEST(ShardedDifferential, AggregatorCutStraddlingSmallTrees) {
  run_sharded_differential(4, 0x5AD200, 30, 4, 8, 1);
  run_sharded_differential(2, 0x5AD201, 30, 3, 8, 8);
  run_sharded_differential(8, 0x5AD202, 25, 12, 64, 8);
}

TEST(ShardedDifferential, OtherDegrees) {
  run_sharded_differential(2, 0x5AD300, 25, 64, 4, 8);
  run_sharded_differential(8, 0x5AD301, 25, 200, 4, 8);
}


// ---------------------------------------------------------------------------
// Oracle lockstep: the legacy implementation, Marker::run and
// Marker::run_sharded apply the same scripted batches to three trees.
// Every batch update, tree (keys included) and payload must match the
// oracle, and the sharded tree must match the serial one. The scripts
// below aim at the changed-set walk and the flat batch maps: clustered
// churn, pruning gaps, repeated splits of same-batch joiners, and slots
// past the dense arena.
// ---------------------------------------------------------------------------

class OracleLockstep {
 public:
  OracleLockstep(unsigned degree, std::uint64_t seed, unsigned shards,
                 unsigned threads)
      : ref_(degree, seed),
        serial_(degree, seed),
        sharded_(degree, seed),
        plan_(ShardPlan::make(degree, shards)),
        pool_(threads),
        runner_(&pool_) {}

  OracleLockstep(unsigned degree, std::uint64_t seed, unsigned shards,
                 unsigned threads, const std::map<NodeId, Node>& nodes)
      : ref_(degree, seed, nodes),
        serial_(KeyTree::from_nodes(degree, seed, nodes)),
        sharded_(KeyTree::from_nodes(degree, seed, nodes)),
        plan_(ShardPlan::make(degree, shards)),
        pool_(threads),
        runner_(&pool_) {}

  const KeyTree& tree() const { return serial_; }

  // Applies one batch to all three trees and compares everything; returns
  // the serial update for script-specific assertions.
  BatchUpdate apply(const std::vector<MemberId>& joins,
                    const std::vector<MemberId>& leaves) {
    const int batch = batch_++;
    const legacy::LegacyUpdate ref_upd = ref_.run(joins, leaves);
    BatchUpdate a = Marker(serial_).run(joins, leaves);
    ShardBatchStats stats;
    const BatchUpdate b =
        Marker(sharded_).run_sharded(joins, leaves, plan_, runner_, &stats);
    expect_updates_equal(a, ref_upd, batch);
    expect_updates_equal(b, ref_upd, batch);
    expect_trees_equal(serial_, ref_, batch);
    expect_flat_trees_equal(serial_, sharded_, batch);
    if (::testing::Test::HasFatalFailure()) return a;
    serial_.check_invariants();
    check_sharded_tree(sharded_, plan_);
    std::size_t changed_total = stats.aggregator_changed;
    for (const std::size_t c : stats.shard_changed) changed_total += c;
    EXPECT_EQ(changed_total, b.changed_knodes.size()) << "batch " << batch;

    const auto msg_id = static_cast<std::uint32_t>(batch + 1);
    generate_rekey_payload_into(serial_, a, msg_id, serial_payload_);
    expect_payloads_equal(serial_payload_,
                          legacy::generate_payload(ref_, ref_upd, msg_id),
                          batch);
    generate_rekey_payload_sharded(sharded_, b, msg_id, sharded_payload_,
                                   plan_, runner_);
    expect_flat_payloads_equal(serial_payload_, sharded_payload_, batch);
    return a;
  }

 private:
  legacy::LegacyTree ref_;
  KeyTree serial_;
  KeyTree sharded_;
  ShardPlan plan_;
  rekey::ThreadPool pool_;
  rekey::TaskRunner runner_;
  RekeyPayload serial_payload_, sharded_payload_;
  int batch_ = 0;
};

std::vector<MemberId> member_range(MemberId first, std::size_t n) {
  std::vector<MemberId> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = first + static_cast<MemberId>(i);
  return out;
}

// The daemon's churn pattern at 2^14: members [clients, N) form a pool,
// each batch retires its oldest block of N/16 and appends as many fresh
// joiners, so the changed slots of a batch form one contiguous run.
TEST(OracleLockstep, ClusteredBlockChurnAt2e14OnFourShards) {
  constexpr std::size_t kN = std::size_t{1} << 14, kClients = 1024;
  constexpr std::size_t kChurn = kN / 16;
  OracleLockstep run(4, 0xC1u, /*shards=*/4, /*threads=*/2);
  run.apply(member_range(0, kN), {});
  std::vector<MemberId> pool = member_range(kClients, kN - kClients);
  MemberId next = kN;
  for (int batch = 0; batch < 6; ++batch) {
    const std::vector<MemberId> leaves(pool.begin(), pool.begin() + kChurn);
    pool.erase(pool.begin(), pool.begin() + kChurn);
    const std::vector<MemberId> joins = member_range(next, kChurn);
    next += kChurn;
    pool.insert(pool.end(), joins.begin(), joins.end());
    const BatchUpdate upd = run.apply(joins, leaves);
    if (::testing::Test::HasFatalFailure()) return;
    // The departed slots really are one contiguous run.
    const NodeId lo = upd.departed.begin()->second;
    for (const auto& [m, slot] : upd.departed)
      EXPECT_EQ(slot, lo + (m - upd.departed.begin()->first)) << batch;
  }
}

// J < L batches that empty whole subtrees: pruning turns their k-nodes
// into n-nodes, so a departed slot's parent (and grandparent) can be
// absent while a k-node further up is changed. The walk has to pass
// through those gaps.
TEST(OracleLockstep, LeaveHeavyBatchesWalkThroughPrunedGaps) {
  for (const unsigned degree : {2u, 4u}) {
    Rng rng(0x6A9 + degree);
    OracleLockstep run(degree, 0x6A90 + degree, /*shards=*/4,
                       /*threads=*/3);
    constexpr std::size_t kN = 2048;
    run.apply(member_range(0, kN), {});
    MemberId next = kN;
    bool saw_gap = false;
    for (int batch = 0; batch < 8; ++batch) {
      const KeyTree& t = run.tree();
      const std::vector<NodeId> slots = t.user_slots();
      // Empty the subtrees of a few k-nodes two levels above random
      // users, plus a few scattered leaves; join a quarter as many.
      std::set<MemberId> leave_set;
      for (int k = 0; k < 3 && !slots.empty(); ++k) {
        const NodeId pick = slots[rng.next_in(0, slots.size() - 1)];
        if (pick == kRootId || parent_of(pick, degree) == kRootId) continue;
        const NodeId top = parent_of(parent_of(pick, degree), degree);
        for (const NodeId s : slots)
          if (is_ancestor(top, s, degree)) leave_set.insert(t.node(s).member);
      }
      for (int k = 0; k < 5 && !slots.empty(); ++k)
        leave_set.insert(
            t.node(slots[rng.next_in(0, slots.size() - 1)]).member);
      const std::vector<MemberId> leaves(leave_set.begin(), leave_set.end());
      const std::vector<MemberId> joins =
          member_range(next, leaves.size() / 4);
      next += static_cast<MemberId>(joins.size());
      const BatchUpdate upd = run.apply(joins, leaves);
      if (::testing::Test::HasFatalFailure()) return;
      for (const auto& [m, slot] : upd.departed) {
        if (slot == kRootId || run.tree().contains(slot)) continue;
        const NodeId parent = parent_of(slot, degree);
        if (run.tree().contains(parent)) continue;
        for (NodeId a = parent; a != kRootId;) {
          a = parent_of(a, degree);
          if (upd.changed_knodes.contains(a)) saw_gap = true;
        }
      }
    }
    EXPECT_TRUE(saw_gap) << "no batch left an absent gap below a changed "
                            "k-node at degree "
                         << degree;
  }
}

// One join-only batch on a nearly full tree: every free slot comes from a
// split, and the splits soon reach users who joined earlier in the same
// batch, some of them more than once. joined must report final slots.
TEST(OracleLockstep, JoinOnlyBatchResplitsSameBatchJoiners) {
  for (const unsigned degree : {2u, 3u, 4u}) {
    OracleLockstep run(degree, 0x5B17 + degree, /*shards=*/2,
                       /*threads=*/2);
    run.apply(member_range(0, degree), {});
    const std::vector<MemberId> joins = member_range(1000, 300);
    const BatchUpdate upd = run.apply(joins, {});
    if (::testing::Test::HasFatalFailure()) return;
    // A joiner that ends at the end of a chain of two or more moves was
    // placed, split, and split again within this batch.
    std::set<NodeId> move_targets;
    for (const auto& [from, to] : upd.moved) move_targets.insert(to);
    std::size_t resplit_joiners = 0;
    for (const auto& [from, to] : upd.moved) {
      if (!move_targets.count(from) || upd.moved.find(to) != upd.moved.end())
        continue;
      const MemberId m = run.tree().node(to).member;
      if (upd.joined.find(m) != upd.joined.end()) ++resplit_joiners;
    }
    EXPECT_GT(resplit_joiners, 0u) << "degree " << degree;
  }
}

// A deep degree-2 chain: the dense arena covers only the top few levels,
// so the changed slots and most of the changed k-nodes live in the
// overflow map.
TEST(OracleLockstep, ChangedSlotsPastDenseCapacity) {
  crypto::KeyGenerator gen(5);
  std::map<NodeId, Node> nodes;
  NodeId id = kRootId;
  for (unsigned level = 0; level <= 18; ++level) {
    nodes[id] = Node{NodeKind::KNode, gen.next(), 0};
    if (level < 18) id = child_of(id, 0, 2);
  }
  nodes[child_of(id, 0, 2)] = Node{NodeKind::UNode, gen.next(), 100};
  nodes[child_of(id, 1, 2)] = Node{NodeKind::UNode, gen.next(), 101};
  for (const unsigned shards : {2u, 8u}) {
    OracleLockstep run(2, 0xDEE9, shards, /*threads=*/4, nodes);
    bool past_dense = false;
    auto note = [&](const BatchUpdate& upd) {
      for (const auto& [m, slot] : upd.joined)
        past_dense = past_dense || slot >= run.tree().dense_capacity();
      for (const auto& [m, slot] : upd.departed)
        past_dense = past_dense || slot >= run.tree().dense_capacity();
    };
    note(run.apply({200, 201, 202}, {100}));          // J > L, fills
    note(run.apply(member_range(300, 40), {}));       // fills and splits
    note(run.apply({400}, {101, 200, 201, 300, 301}));  // J < L, prunes
    note(run.apply(member_range(500, 8), member_range(302, 8)));  // J = L
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_TRUE(past_dense) << shards;
  }
}

}  // namespace
}  // namespace rekey::tree
