// SmallVec<T, N>: a vector whose first N elements live inline.
//
// Process state is copied on every COW detach and the World on every
// fork, so a std::vector or std::map member costs a heap allocation per
// copy (per node, for a map) even when it holds two or three entries. A
// SmallVec of that size copies into its inline storage instead; past N it
// spills to the heap and behaves as a vector. Only the operations those
// users need are provided; sorted-vector maps build
// lower_bound/insert/erase on top.
#pragma once

#include <algorithm>
#include <cstddef>
#include <new>
#include <utility>

namespace memu {

template <class T, std::size_t N>
class SmallVec {
  static_assert(N > 0, "a SmallVec holds at least one element inline");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() = default;
  SmallVec(const SmallVec& o) { append(o.begin(), o.end()); }
  SmallVec(SmallVec&& o) noexcept { take(std::move(o)); }
  // Assigns element by element over the common prefix, as std::vector
  // does: an element type whose assignment is cheaper than destroy plus
  // copy (a refcounted handle re-assigned the block it already holds)
  // keeps that advantage.
  SmallVec& operator=(const SmallVec& o) {
    if (this == &o) return *this;
    const std::size_t common = std::min(size_, o.size_);
    std::copy(o.begin(), o.begin() + common, begin());
    while (size_ > o.size_) pop_back();
    append(o.begin() + common, o.end());
    return *this;
  }
  SmallVec& operator=(SmallVec&& o) noexcept {
    if (this != &o) {
      clear();
      release_heap();
      take(std::move(o));
    }
    return *this;
  }
  ~SmallVec() {
    clear();
    release_heap();
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T* data() { return heap_ != nullptr ? heap_ : inline_data(); }
  const T* data() const { return heap_ != nullptr ? heap_ : inline_data(); }
  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }

  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) grow();
    T* slot = data() + size_;
    new (slot) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(T value) { emplace_back(std::move(value)); }

  // Inserts `value` before `pos`; returns the inserted element.
  iterator insert(const_iterator pos, T value) {
    const std::size_t at = static_cast<std::size_t>(pos - begin());
    emplace_back(std::move(value));
    std::rotate(begin() + at, end() - 1, end());
    return begin() + at;
  }

  iterator erase(const_iterator first, const_iterator last) {
    const std::size_t at = static_cast<std::size_t>(first - begin());
    const std::size_t n = static_cast<std::size_t>(last - first);
    std::move(begin() + at + n, end(), begin() + at);
    for (std::size_t i = 0; i < n; ++i) pop_back();
    return begin() + at;
  }
  iterator erase(const_iterator pos) { return erase(pos, pos + 1); }

  void pop_back() {
    --size_;
    data()[size_].~T();
  }

  // Destroys every element; spilled storage keeps its capacity.
  void clear() {
    while (size_ > 0) pop_back();
  }

 private:
  T* inline_data() { return std::launder(reinterpret_cast<T*>(inline_)); }
  const T* inline_data() const {
    return std::launder(reinterpret_cast<const T*>(inline_));
  }

  template <class It>
  void append(It first, It last) {
    for (; first != last; ++first) emplace_back(*first);
  }

  void grow() {
    const std::size_t cap = 2 * capacity_;
    T* fresh = static_cast<T*>(
        ::operator new(cap * sizeof(T), std::align_val_t{alignof(T)}));
    T* old = data();
    for (std::size_t i = 0; i < size_; ++i) {
      new (fresh + i) T(std::move(old[i]));
      old[i].~T();
    }
    release_heap();
    heap_ = fresh;
    capacity_ = cap;
  }

  void release_heap() {
    if (heap_ != nullptr) {
      ::operator delete(heap_, std::align_val_t{alignof(T)});
      heap_ = nullptr;
      capacity_ = N;
    }
  }

  // Moves `o`'s elements here (stealing its heap block if it spilled) and
  // leaves `o` empty with inline capacity. Requires this to be empty and
  // inline.
  void take(SmallVec&& o) {
    if (o.heap_ != nullptr) {
      heap_ = std::exchange(o.heap_, nullptr);
      capacity_ = std::exchange(o.capacity_, N);
      size_ = std::exchange(o.size_, 0);
      return;
    }
    for (std::size_t i = 0; i < o.size_; ++i) emplace_back(std::move(o[i]));
    o.clear();
  }

  T* heap_ = nullptr;  // spilled storage, or null while inline
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
  alignas(T) unsigned char inline_[N * sizeof(T)];
};

}  // namespace memu
