// Constant-time lookups into a batch's changed k-node set.
//
// Payload generation asks, for every level of every user's path, whether
// the parent changed and where it sits in the sorted changed set. A binary
// search over NodeIdSet per step made that the dominant cost of the
// payload at 2^20 users. ChangedIndex answers both questions with a bitmap
// and a per-word rank over the dense id range: contains() is one bit test,
// index_of() a rank lookup plus one popcount.
//
// The bitmap spans ids [0, min(dense_limit, max changed id + 1)), where
// the caller passes the key tree's dense_capacity(), so its memory is
// bounded by the tree arena and not by the largest id. Changed ids past
// it (the sparse frontier of a deep tree) are answered by binary search
// over the sorted tail of the set.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "keytree/marking.h"

namespace rekey::tree {

class ChangedIndex {
 public:
  // Builds the index over `changed`, which must outlive it unmodified.
  ChangedIndex(const NodeIdSet& changed, std::size_t dense_limit);

  std::size_t size() const { return changed_->size(); }
  // Ids covered by the bitmap: [0, dense_ids()).
  std::size_t dense_ids() const { return dense_ids_; }

  bool contains(NodeId id) const { return index_of(id) != size(); }

  // Position of `id` in the ascending changed set, or size() if absent —
  // the same answer as NodeIdSet::index_of.
  std::size_t index_of(NodeId id) const {
    if (id < dense_ids_) {
      const std::uint64_t word = bits_[id >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (id & 63);
      if ((word & bit) == 0) return size();
      return rank_[id >> 6] + std::popcount(word & (bit - 1));
    }
    return tail_index_of(id);
  }

 private:
  std::size_t tail_index_of(NodeId id) const;

  const NodeIdSet* changed_ = nullptr;
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint32_t> rank_;  // set bits in the words before
  std::size_t dense_ids_ = 0;
  std::size_t tail_begin_ = 0;  // first position with an id >= dense_ids_
};

}  // namespace rekey::tree
