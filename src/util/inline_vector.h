// A short sequence kept inside its owner. The protocol agents hold one
// selected path, one node-cost list and one value row per destination, a
// handful of entries each; as std::vectors they cost a heap block apiece
// and a pointer chase on every read. An InlineVector stores up to N values
// in the object itself and moves them to the heap only beyond that.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/contract.h"

namespace fpss::util {

/// A contiguous sequence of trivially destructible values, stored inline up
/// to N of them and on the heap beyond. Capacity never shrinks: once a
/// vector has moved to the heap it stays there, so a row that grew once
/// re-fills without allocating. The interface is the subset of std::vector
/// the agents use; it converts to std::span and compares equal to a
/// std::vector holding the same values.
template <typename T, std::size_t N>
class InlineVector {
  static_assert(std::is_trivially_destructible_v<T> &&
                    std::is_trivially_copy_constructible_v<T>,
                "elements are copied and dropped without running code");
  static_assert(N > 0 && N <= UINT32_MAX);

 public:
  using value_type = T;
  using size_type = std::size_t;
  using iterator = T*;
  using const_iterator = const T*;

  InlineVector() = default;
  InlineVector(std::initializer_list<T> values) {
    assign(values.begin(), values.end());
  }
  InlineVector(const InlineVector& other) {
    assign(other.begin(), other.end());
  }
  InlineVector(InlineVector&& other) noexcept { take(other); }
  ~InlineVector() { release(); }

  InlineVector& operator=(const InlineVector& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  InlineVector& operator=(InlineVector&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  InlineVector& operator=(std::initializer_list<T> values) {
    assign(values.begin(), values.end());
    return *this;
  }

  T* data() { return on_heap() ? heap_ : inline_data(); }
  const T* data() const { return on_heap() ? heap_ : inline_data(); }
  size_type size() const { return size_; }
  bool empty() const { return size_ == 0; }

  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  T& operator[](size_type i) { return data()[i]; }
  const T& operator[](size_type i) const { return data()[i]; }
  const T& front() const { return data()[0]; }
  const T& back() const { return data()[size_ - 1]; }

  void clear() { size_ = 0; }

  /// New elements are value-initialized.
  void resize(size_type n) {
    reserve(n);
    if (n > size_) std::uninitialized_value_construct(end(), data() + n);
    size_ = static_cast<std::uint32_t>(n);
  }

  template <std::forward_iterator It>
  void assign(It first, It last) {
    const auto n = static_cast<size_type>(std::distance(first, last));
    reserve(n);
    std::uninitialized_copy(first, last, data());
    size_ = static_cast<std::uint32_t>(n);
  }

  friend bool operator==(const InlineVector& a, const InlineVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  template <typename Alloc>
  friend bool operator==(const InlineVector& a,
                         const std::vector<T, Alloc>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  bool on_heap() const { return capacity_ > N; }

  void reserve(size_type n) {
    if (n > capacity_) grow(n);
  }
  T* inline_data() { return reinterpret_cast<T*>(inline_); }
  const T* inline_data() const { return reinterpret_cast<const T*>(inline_); }

  /// Moves the contents to a heap block of at least `n` slots.
  void grow(size_type n) {
    FPSS_EXPECTS(n <= UINT32_MAX);
    n = std::max<size_type>(n, N + 1);
    T* block = std::allocator<T>().allocate(n);
    std::uninitialized_copy(begin(), end(), block);
    release();
    heap_ = block;
    capacity_ = static_cast<std::uint32_t>(n);
  }

  /// Frees the heap block, if any; the contents are gone afterwards.
  void release() {
    if (on_heap()) std::allocator<T>().deallocate(heap_, capacity_);
    capacity_ = N;
  }

  /// Takes `other`'s contents (its heap block, or a copy of its inline
  /// values) and leaves it empty and inline. Precondition: this is inline.
  void take(InlineVector& other) {
    if (other.on_heap()) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      other.capacity_ = N;
    } else {
      std::uninitialized_copy(other.begin(), other.end(), inline_data());
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;  ///< > N iff the values live on the heap
  union {
    alignas(T) std::byte inline_[N * sizeof(T)];
    T* heap_;
  };
};

}  // namespace fpss::util
