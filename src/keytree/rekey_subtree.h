// Rekey subtree construction and encryption generation (paper §2.1, §2.2,
// Appendix B).
//
// The rekey subtree consists of the k-nodes whose keys changed in a batch,
// their direct children, and the connecting edges. For every edge
// (changed k-node x, child c) the server emits the encryption
// {newkey(x)}_{key(c)} — where key(c) is c's new key if c is itself a
// changed k-node, or c's (possibly brand-new) individual key if c is a
// u-node. The encryption's id is c's node id: each node's key encrypts at
// most one key per rekey message, so the id is unique and self-describing
// (the target is always the parent's key).
//
// Appendix-B labels (Unchanged / Join / Leave / Replace) are also computed:
// a changed k-node is labelled Join when the only changes beneath it are
// joins, Replace when some user beneath departed or was relocated by a
// split. They are diagnostic here (encryption generation does not depend on
// them) but are exercised by tests and by the analysis module.
//
// The payload containers are flat: user needs live in one CSR
// (slots / offsets / indices) instead of a map of vectors, and labels are
// a sorted array parallel to the changed-k-node set. Generation does O(1)
// work per lookup: a ChangedIndex (keytree/changed_index.h) answers the
// changed-set queries, per-k-node child masks locate each edge's
// encryption, and the encryptions are sealed in blocks by the batched
// lane kernels (crypto::encrypt_keys). Pass a ThreadPool to fan the
// encryption and user-needs passes out over worker threads — output
// positions are fixed up front, so the result is bit-identical to the
// serial path regardless of thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/ensure.h"
#include "crypto/keys.h"
#include "keytree/marking.h"

namespace rekey {
class ThreadPool;
class TaskRunner;
}

namespace rekey::tree {

struct RekeyPayload;
struct BatchUpdate;

namespace detail {

// Fan-out of the payload passes: each runs in this many equal ranges on
// the caller's TaskRunner (1 = inline).
struct PayloadFanout {
  std::size_t enc_chunks = 1;    // ranges of changed k-nodes
  std::size_t needs_chunks = 1;  // ranges of user slots
};

// The one payload generator behind generate_rekey_payload_into and
// generate_rekey_payload_sharded (keytree/shard_pipeline.h). Every pass
// writes to output positions fixed before it fans out, so the result is
// byte-identical for every fan-out, thread count and task order.
void build_rekey_payload(const KeyTree& tree, const BatchUpdate& update,
                         std::uint32_t msg_id, RekeyPayload& out,
                         rekey::TaskRunner& runner, PayloadFanout fanout);

}  // namespace detail

enum class Label : std::uint8_t { Join, Replace };

struct Encryption {
  NodeId enc_id = 0;     // id of the encrypting node (the child c)
  NodeId target_id = 0;  // id of the node whose new key is carried (parent)
  crypto::EncryptedKey payload;
};

struct RekeyPayload;

// For every current user slot with at least one needed encryption: the
// indices into RekeyPayload::encryptions it needs, ordered bottom-up along
// its path. Stored as one CSR (sorted slots, offsets, flat index pool) —
// iteration yields (slot, span) pairs in ascending slot order.
class UserNeeds {
 public:
  using needs_span = std::span<const std::uint32_t>;

  class const_iterator {
   public:
    using value_type = std::pair<NodeId, needs_span>;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;
    const_iterator(const UserNeeds* un, std::size_t i) : un_(un), i_(i) {}

    value_type operator*() const {
      return {un_->slots_[i_], un_->needs_at(i_)};
    }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    const UserNeeds* un_ = nullptr;
    std::size_t i_ = 0;
  };

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, slots_.size()}; }
  std::size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }
  void clear() {
    slots_.clear();
    offsets_.clear();
    indices_.clear();
  }

  std::size_t count(NodeId slot) const {
    return index_of(slot) < slots_.size() ? 1 : 0;
  }
  // Throws when the slot has no needs (mirrors std::map::at).
  needs_span at(NodeId slot) const {
    const std::size_t i = index_of(slot);
    REKEY_ENSURE_MSG(i < slots_.size(), "slot has no needed encryptions");
    return needs_at(i);
  }
  // Empty span when the slot has no needs.
  needs_span needs_of(NodeId slot) const {
    const std::size_t i = index_of(slot);
    return i < slots_.size() ? needs_at(i) : needs_span{};
  }

 private:
  friend void detail::build_rekey_payload(const KeyTree&, const BatchUpdate&,
                                          std::uint32_t, RekeyPayload&,
                                          rekey::TaskRunner&,
                                          detail::PayloadFanout);

  std::size_t index_of(NodeId slot) const {
    const auto it = std::lower_bound(slots_.begin(), slots_.end(), slot);
    if (it == slots_.end() || *it != slot) return slots_.size();
    return static_cast<std::size_t>(it - slots_.begin());
  }
  needs_span needs_at(std::size_t i) const {
    return needs_span(indices_.data() + offsets_[i],
                      offsets_[i + 1] - offsets_[i]);
  }

  std::vector<NodeId> slots_;            // ascending user slots with needs
  std::vector<std::uint32_t> offsets_;   // size slots_.size() + 1
  std::vector<std::uint32_t> indices_;   // flat pool of encryption indices
};

// Appendix-B labels of the changed k-nodes: a sorted (node id, label)
// array parallel to BatchUpdate::changed_knodes.
class LabelMap {
 public:
  using value_type = std::pair<NodeId, Label>;
  using const_iterator = std::vector<value_type>::const_iterator;

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  std::size_t count(NodeId id) const {
    return index_of(id) < entries_.size() ? 1 : 0;
  }
  Label at(NodeId id) const {
    const std::size_t i = index_of(id);
    REKEY_ENSURE_MSG(i < entries_.size(), "node has no label");
    return entries_[i].second;
  }

 private:
  friend void detail::build_rekey_payload(const KeyTree&, const BatchUpdate&,
                                          std::uint32_t, RekeyPayload&,
                                          rekey::TaskRunner&,
                                          detail::PayloadFanout);

  std::size_t index_of(NodeId id) const {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), id,
        [](const value_type& e, NodeId v) { return e.first < v; });
    if (it == entries_.end() || it->first != id) return entries_.size();
    return static_cast<std::size_t>(it - entries_.begin());
  }

  std::vector<value_type> entries_;  // sorted by node id
};

struct RekeyPayload {
  std::uint32_t msg_id = 0;
  unsigned degree = 4;
  NodeId max_kid = 0;
  // Bottom-up generation order (deepest subtrees first).
  std::vector<Encryption> encryptions;
  // For every current user slot: indices into `encryptions` it needs,
  // ordered bottom-up along its path. Users with no changed ancestor have
  // no entry.
  UserNeeds user_needs;
  // Appendix-B labels of the changed k-nodes.
  LabelMap labels;
};

// Generates the rekey message payload for a batch that was just applied to
// `tree` (whose keys are already the *new* keys). A non-null `pool` with
// more than one worker fans the encryption and user-needs passes out
// across threads; the result is bit-identical to the serial path.
RekeyPayload generate_rekey_payload(const KeyTree& tree,
                                    const BatchUpdate& update,
                                    std::uint32_t msg_id,
                                    rekey::ThreadPool* pool = nullptr);

// Reuse-friendly variant: clears and refills `out`, keeping its buffer
// capacity across batches (the output containers stop reallocating once
// warm; per-batch scratch is sized by the changed set and user count).
void generate_rekey_payload_into(const KeyTree& tree,
                                 const BatchUpdate& update,
                                 std::uint32_t msg_id, RekeyPayload& out,
                                 rekey::ThreadPool* pool = nullptr);

}  // namespace rekey::tree
