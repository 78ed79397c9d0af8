// Fixed-capacity ring buffer.
//
// The seq-ack window in the paper is "a ring buffer style whose ring length
// is the in-flight message depth" (§V-B); this is that ring. Capacity is
// rounded up to a power of two so index masking replaces modulo.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace xrdma {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  std::size_t capacity() const { return slots_.size(); }
  std::size_t size() const { return tail_ - head_; }
  bool empty() const { return head_ == tail_; }
  bool full() const { return size() == capacity(); }

  /// Append; returns false when full.
  bool push(T value) {
    if (full()) return false;
    slots_[tail_ & mask_] = std::move(value);
    ++tail_;
    return true;
  }

  /// Pop from the front; undefined when empty.
  T pop() {
    assert(!empty());
    T v = std::move(slots_[head_ & mask_]);
    ++head_;
    return v;
  }

  T& front() {
    assert(!empty());
    return slots_[head_ & mask_];
  }
  const T& front() const {
    assert(!empty());
    return slots_[head_ & mask_];
  }

  /// Element i positions from the front (0 == front()).
  T& at(std::size_t i) {
    assert(i < size());
    return slots_[(head_ + i) & mask_];
  }
  const T& at(std::size_t i) const {
    assert(i < size());
    return slots_[(head_ + i) & mask_];
  }

  /// Absolute sequence number of the front element. Sequence numbers grow
  /// monotonically with each push; the window layer aligns these with the
  /// wire SEQ numbers.
  std::size_t head_seq() const { return head_; }
  std::size_t tail_seq() const { return tail_; }

  void clear() {
    while (!empty()) pop();
  }

  /// Frees the storage of an empty ring. capacity() reads 0 afterwards, so
  /// the ring stays full and push() fails.
  void release() {
    assert(empty());
    std::vector<T>().swap(slots_);
    mask_ = 0;
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;  // absolute index of front
  std::size_t tail_ = 0;  // absolute index one past back
};

}  // namespace xrdma
