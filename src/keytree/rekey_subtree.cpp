#include "keytree/rekey_subtree.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>

#include "common/ensure.h"
#include "common/parallel.h"
#include "keytree/changed_index.h"

namespace rekey::tree {

namespace {

// Work below this size is not worth fanning out over a thread pool.
constexpr std::size_t kParallelEncThreshold = 256;
constexpr std::size_t kParallelNeedsThreshold = 4096;

// Edges per encrypt_keys call: a multiple of every kernel's lane count.
constexpr std::size_t kCryptoBlock = 64;

constexpr std::uint32_t kNoEntry = std::numeric_limits<std::uint32_t>::max();

// Runs fn(begin, end) over `chunks` equal ranges of [0, n) on `runner`.
void for_ranges(rekey::TaskRunner& runner, std::size_t n, std::size_t chunks,
                const std::function<void(std::size_t, std::size_t)>& fn) {
  chunks = std::min(chunks, n);
  if (chunks <= 1) {
    if (n > 0) fn(0, n);
    return;
  }
  runner.run(chunks, [&](std::size_t c) {
    const std::size_t begin = n * c / chunks;
    const std::size_t end = n * (c + 1) / chunks;
    if (begin < end) fn(begin, end);
  });
}

// Encrypts encs[begin, end) in place, {key(target_id)} under
// key(enc_id), in blocks through the batched kernels.
void encrypt_range(const KeyTree& tree, std::uint32_t msg_id,
                   std::vector<Encryption>& encs, std::size_t begin,
                   std::size_t end) {
  std::array<crypto::WrapJob, kCryptoBlock> jobs;
  std::array<crypto::EncryptedKey, kCryptoBlock> sealed;
  for (std::size_t b = begin; b < end; b += kCryptoBlock) {
    const std::size_t n = std::min(kCryptoBlock, end - b);
    for (std::size_t i = 0; i < n; ++i) {
      const Encryption& e = encs[b + i];
      jobs[i] = {&tree.key_of(e.enc_id), &tree.key_of(e.target_id),
                 e.enc_id};
    }
    crypto::encrypt_keys({jobs.data(), n}, msg_id, {sealed.data(), n});
    for (std::size_t i = 0; i < n; ++i) encs[b + i].payload = sealed[i];
  }
}

// Walks user paths in ascending slot order and yields each user's needed
// encryptions, bottom-up. Consecutive users share every edge above their
// deepest common ancestor, so the walk reuses the previous user's entries
// there and only looks up the edges below it: siblings cost one lookup,
// not one per level. `enc_index(c, p, pos)` gives the encryption of edge
// (c, p) for a changed parent p at position pos of the changed set.
template <typename EncIndex>
class NeedsWalker {
 public:
  NeedsWalker(unsigned degree, const ChangedIndex& changed,
              const EncIndex& enc_index)
      : d_(degree), changed_(changed), enc_index_(enc_index) {}

  // Moves to `slot` (ascending across calls); returns its need count.
  std::uint32_t visit(NodeId slot) {
    const unsigned shared = has_prev_ ? depth_ : 0;
    if (!has_prev_) {
      depth_ = level_of(slot, d_);
      next_level_ = level_start_after(first_id_at_level(depth_, d_));
      has_prev_ = true;
    }
    while (slot >= next_level_) {
      ++depth_;
      next_level_ = level_start_after(next_level_);
    }
    unsigned t = depth_;
    NodeId node = slot;
    while (t > 0 && !(t <= shared && anc_[t] == node)) {
      const NodeId p = parent_of(node, d_);
      const std::size_t pos = changed_.index_of(p);
      entry_[t] = pos == changed_.size() ? kNoEntry : enc_index_(node, p, pos);
      anc_[t] = node;
      node = p;
      --t;
    }
    // Edges at depth <= t are the previous user's, and so are their sums.
    for (unsigned s = t + 1; s <= depth_; ++s)
      cum_[s] = cum_[s - 1] + (entry_[s] != kNoEntry ? 1 : 0);
    return cum_[depth_];
  }

  // Writes the last visited user's needs, bottom-up.
  void write(std::uint32_t* out) const {
    for (unsigned s = depth_; s > 0; --s)
      if (entry_[s] != kNoEntry) *out++ = entry_[s];
  }

 private:
  // First id of the level after the one starting at `start`, saturated
  // at the top of the id space.
  NodeId level_start_after(NodeId start) const {
    constexpr NodeId kMax = std::numeric_limits<NodeId>::max();
    return start > (kMax - 1) / d_ ? kMax : start * d_ + 1;
  }

  // Depth 64 bounds every 64-bit id of a tree with degree >= 2.
  static constexpr std::size_t kMaxDepth = 65;

  unsigned d_;
  const ChangedIndex& changed_;
  const EncIndex& enc_index_;
  bool has_prev_ = false;
  unsigned depth_ = 0;
  NodeId next_level_ = 0;
  std::array<NodeId, kMaxDepth> anc_{};          // ancestor at depth t
  std::array<std::uint32_t, kMaxDepth> entry_{};  // edge (anc_[t], parent)
  std::array<std::uint32_t, kMaxDepth> cum_{};    // entries at depths 1..t
};

}  // namespace

namespace detail {

void build_rekey_payload(const KeyTree& tree, const BatchUpdate& update,
                         std::uint32_t msg_id, RekeyPayload& out,
                         rekey::TaskRunner& runner, PayloadFanout fanout) {
  out.msg_id = msg_id;
  out.degree = tree.degree();
  out.max_kid = update.max_kid;
  out.encryptions.clear();
  out.user_needs.clear();
  out.labels.clear();

  const unsigned d = tree.degree();
  const NodeIdSet& changed = update.changed_knodes;
  const std::size_t n_changed = changed.size();
  const ChangedIndex index(changed, tree.dense_capacity());

  // Labels: a changed k-node above any departed or split-relocated slot is
  // Replace; one whose changes are joins only is Join. The label array is
  // parallel to the (sorted) changed set, so the taint walk is one index
  // lookup per ancestor. Replace labels are upward-closed at every step,
  // so a walk may stop at an already-Replace node — everything above it is
  // already tainted. (It must NOT stop at an unlabeled ancestor: pruning
  // can leave gaps of absent nodes below changed ones.) Serial: the walks
  // of different slots write shared entries.
  auto& labels = out.labels.entries_;
  labels.reserve(n_changed);
  for (std::size_t i = 0; i < n_changed; ++i)
    labels.emplace_back(changed[i], Label::Join);
  auto taint = [&](NodeId slot) {
    NodeId id = slot;
    while (id != kRootId) {
      id = parent_of(id, d);
      const std::size_t i = index.index_of(id);
      if (i == n_changed) continue;
      if (labels[i].second == Label::Replace) break;
      labels[i].second = Label::Replace;
    }
  };
  for (const auto& [member, slot] : update.departed) taint(slot);
  for (const auto& [old_slot, new_slot] : update.moved) {
    taint(old_slot);
    // The split node itself hides a relocation from users beneath it.
    const std::size_t i = index.index_of(old_slot);
    if (i != n_changed) labels[i].second = Label::Replace;
  }

  // Encryptions, deepest changed k-nodes first (bottom-up traversal).
  // Descending position k corresponds to ascending index n_changed-1-k;
  // enc_offset[k] is the first encryption of that k-node's children, and
  // child_mask holds which of its d children exist. Count, prefix-sum,
  // then fill and encrypt in place: every range owns its output slots.
  const std::size_t mask_words = (d + 63) / 64;
  std::vector<std::uint32_t> enc_offset(n_changed + 1, 0);
  std::vector<std::uint64_t> child_mask(n_changed * mask_words, 0);
  auto knode_at = [&](std::size_t k) { return changed[n_changed - 1 - k]; };
  for_ranges(runner, n_changed, fanout.enc_chunks,
             [&](std::size_t b, std::size_t e) {
               for (std::size_t k = b; k < e; ++k) {
                 const NodeId x = knode_at(k);
                 std::uint64_t* mask = &child_mask[k * mask_words];
                 std::uint32_t cnt = 0;
                 for (unsigned j = 0; j < d; ++j) {
                   if (!tree.contains(child_of(x, j, d))) continue;  // n-node
                   mask[j / 64] |= std::uint64_t{1} << (j % 64);
                   ++cnt;
                 }
                 enc_offset[k + 1] = cnt;
               }
             });
  for (std::size_t k = 0; k < n_changed; ++k)
    enc_offset[k + 1] += enc_offset[k];
  out.encryptions.resize(enc_offset[n_changed]);
  for_ranges(runner, n_changed, fanout.enc_chunks,
             [&](std::size_t b, std::size_t e) {
               for (std::size_t k = b; k < e; ++k) {
                 const NodeId x = knode_at(k);
                 const std::uint64_t* mask = &child_mask[k * mask_words];
                 std::uint32_t at = enc_offset[k];
                 for (unsigned j = 0; j < d; ++j) {
                   if ((mask[j / 64] >> (j % 64) & 1) == 0) continue;
                   Encryption& enc = out.encryptions[at++];
                   enc.enc_id = child_of(x, j, d);
                   enc.target_id = x;
                 }
               }
               encrypt_range(tree, msg_id, out.encryptions, enc_offset[b],
                             enc_offset[e]);
             });

  // Which encryptions each user needs: for every node c on the user's path
  // (excluding the root), the encryption with id c exists iff parent(c)
  // changed. Changed sets are upward-closed, so these form the top segment
  // of the path; they are recorded bottom-up so a receiver can decrypt in
  // order with the keys it already holds. Counts, then a serial CSR
  // layout, then each range fills its users' fixed spans.
  UserNeeds& un = out.user_needs;
  if (n_changed == 0) return;
  // Encryption of edge (c, p): p's block start plus the number of p's
  // present children before c.
  auto enc_index = [&](NodeId c, NodeId p, std::size_t pos) {
    const std::size_t k = n_changed - 1 - pos;
    const unsigned j = static_cast<unsigned>(c - child_of(p, 0, d));
    const std::uint64_t* mask = &child_mask[k * mask_words];
    REKEY_ENSURE_MSG(mask[j / 64] >> (j % 64) & 1,
                     "missing encryption for an existing child");
    std::uint32_t i = enc_offset[k];
    for (unsigned w = 0; w < j / 64; ++w)
      i += static_cast<std::uint32_t>(std::popcount(mask[w]));
    const std::uint64_t below = (std::uint64_t{1} << (j % 64)) - 1;
    return i + static_cast<std::uint32_t>(std::popcount(mask[j / 64] & below));
  };
  std::vector<NodeId> slots;
  slots.reserve(tree.num_users());
  tree.user_slots_into(slots);
  std::vector<std::uint32_t> counts(slots.size(), 0);
  for_ranges(runner, slots.size(), fanout.needs_chunks,
             [&](std::size_t b, std::size_t e) {
               NeedsWalker walk(d, index, enc_index);
               for (std::size_t i = b; i < e; ++i)
                 counts[i] = walk.visit(slots[i]);
             });
  std::uint32_t total = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (counts[i] == 0) continue;
    un.slots_.push_back(slots[i]);
    un.offsets_.push_back(total);
    total += counts[i];
  }
  un.offsets_.push_back(total);
  un.indices_.resize(total);
  for_ranges(runner, un.slots_.size(), fanout.needs_chunks,
             [&](std::size_t b, std::size_t e) {
               NeedsWalker walk(d, index, enc_index);
               for (std::size_t i = b; i < e; ++i) {
                 walk.visit(un.slots_[i]);
                 walk.write(un.indices_.data() + un.offsets_[i]);
               }
             });
}

}  // namespace detail

RekeyPayload generate_rekey_payload(const KeyTree& tree,
                                    const BatchUpdate& update,
                                    std::uint32_t msg_id,
                                    rekey::ThreadPool* pool) {
  RekeyPayload out;
  generate_rekey_payload_into(tree, update, msg_id, out, pool);
  return out;
}

void generate_rekey_payload_into(const KeyTree& tree,
                                 const BatchUpdate& update,
                                 std::uint32_t msg_id, RekeyPayload& out,
                                 rekey::ThreadPool* pool) {
  const std::size_t wide =
      pool != nullptr && pool->size() > 1 ? pool->size() * 8 : 1;
  detail::PayloadFanout fanout;
  if (update.changed_knodes.size() >= kParallelEncThreshold)
    fanout.enc_chunks = wide;
  if (tree.num_users() >= kParallelNeedsThreshold) fanout.needs_chunks = wide;
  rekey::TaskRunner runner(pool);
  detail::build_rekey_payload(tree, update, msg_id, out, runner, fanout);
}

}  // namespace rekey::tree
