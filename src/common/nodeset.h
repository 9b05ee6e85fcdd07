// NodeSet: a flat bitset keyed by NodeId.
//
// The World's crash/freeze/value-block/bulk-block sets and every client's
// quorum-reply set live on the hot path of deliverability queries, World
// copies and COW process detaches. Node ids are dense (assigned from 0), so
// a word-array bitset replaces std::set's node-based tree: contains() is a
// shift and a mask, and iteration (needed by the canonical encoding) walks
// set bits in ascending id order via countr_zero. The first word is stored
// inline: a set over ids below 64 — every system the explorer, the fuzzer
// and the harnesses build — never touches the heap, so copying it is a
// plain copy of three words.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/check.h"
#include "common/ids.h"

namespace memu {

class NodeSet {
 public:
  bool contains(NodeId id) const {
    if (id.value < 64) return ((first_ >> id.value) & 1u) != 0;
    const std::size_t w = (id.value >> 6) - 1;
    return w < more_.size() && ((more_[w] >> (id.value & 63)) & 1u) != 0;
  }

  // True iff the set changed (id was not yet a member). The World's
  // incremental state hash toggles a membership component exactly when a
  // set actually changes, so insert/erase report it.
  bool insert(NodeId id) {
    MEMU_CHECK(id.valid());
    const std::size_t w = id.value >> 6;
    if (w >= word_count()) more_.resize(w, 0);
    std::uint64_t& bits = mutable_word(w);
    const std::uint64_t bit = std::uint64_t{1} << (id.value & 63);
    if ((bits & bit) != 0) return false;
    bits |= bit;
    ++count_;
    return true;
  }

  // True iff the set changed (id was a member).
  bool erase(NodeId id) {
    const std::size_t w = id.value >> 6;
    if (w >= word_count()) return false;
    std::uint64_t& bits = mutable_word(w);
    const std::uint64_t bit = std::uint64_t{1} << (id.value & 63);
    if ((bits & bit) == 0) return false;
    bits &= ~bit;
    --count_;
    return true;
  }

  // Empties the set, keeping any spilled words' capacity.
  void clear() {
    first_ = 0;
    std::fill(more_.begin(), more_.end(), 0);
    count_ = 0;
  }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  // Members in ascending id order (the canonical-encoding order, matching
  // what sorted-set iteration produced).
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = NodeId;
    using difference_type = std::ptrdiff_t;
    using pointer = const NodeId*;
    using reference = NodeId;

    const_iterator() = default;
    NodeId operator*() const {
      return NodeId{static_cast<std::uint32_t>(
          w_ * 64 + static_cast<std::size_t>(std::countr_zero(bits_)))};
    }
    const_iterator& operator++() {
      bits_ &= bits_ - 1;
      settle();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.w_ == b.w_ && a.bits_ == b.bits_;
    }

   private:
    friend class NodeSet;
    const_iterator(const NodeSet* set, std::size_t w)
        : set_(set), w_(w), bits_(w < set->word_count() ? set->word(w) : 0) {
      settle();
    }
    // Advances to the next non-empty word (or the end position).
    void settle() {
      while (bits_ == 0 && w_ < set_->word_count()) {
        if (++w_ < set_->word_count()) bits_ = set_->word(w_);
      }
    }

    const NodeSet* set_ = nullptr;
    std::size_t w_ = 0;
    std::uint64_t bits_ = 0;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, word_count()); }

  friend bool operator==(const NodeSet& a, const NodeSet& b) {
    if (a.count_ != b.count_) return false;
    const std::size_t n = std::max(a.word_count(), b.word_count());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t wa = i < a.word_count() ? a.word(i) : 0;
      const std::uint64_t wb = i < b.word_count() ? b.word(i) : 0;
      if (wa != wb) return false;
    }
    return true;
  }

 private:
  std::size_t word_count() const { return 1 + more_.size(); }
  std::uint64_t word(std::size_t w) const {
    return w == 0 ? first_ : more_[w - 1];
  }
  std::uint64_t& mutable_word(std::size_t w) {
    return w == 0 ? first_ : more_[w - 1];
  }

  std::uint64_t first_ = 0;            // ids 0..63
  std::vector<std::uint64_t> more_;    // ids 64.. (word i + 1 at index i)
  std::size_t count_ = 0;
};

}  // namespace memu
