#include "keytree/changed_index.h"

#include <algorithm>

namespace rekey::tree {

ChangedIndex::ChangedIndex(const NodeIdSet& changed, std::size_t dense_limit)
    : changed_(&changed) {
  const std::size_t n = changed.size();
  const NodeId end = n == 0 ? 0 : changed[n - 1] + 1;
  // Rounded up to whole words, so index_of never reads past the bitmap.
  dense_ids_ = (static_cast<std::size_t>(std::min<NodeId>(end, dense_limit)) +
                63) & ~std::size_t{63};
  bits_.assign(dense_ids_ / 64, 0);
  rank_.assign(dense_ids_ / 64, 0);
  std::size_t i = 0;
  for (; i < n && changed[i] < dense_ids_; ++i)
    bits_[changed[i] >> 6] |= std::uint64_t{1} << (changed[i] & 63);
  tail_begin_ = i;
  std::uint32_t seen = 0;
  for (std::size_t w = 0; w < bits_.size(); ++w) {
    rank_[w] = seen;
    seen += static_cast<std::uint32_t>(std::popcount(bits_[w]));
  }
}

std::size_t ChangedIndex::tail_index_of(NodeId id) const {
  const auto begin =
      changed_->begin() + static_cast<std::ptrdiff_t>(tail_begin_);
  const auto it = std::lower_bound(begin, changed_->end(), id);
  if (it == changed_->end() || *it != id) return size();
  return static_cast<std::size_t>(it - changed_->begin());
}

}  // namespace rekey::tree
