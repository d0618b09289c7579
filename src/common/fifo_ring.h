// FIFO ring over fixed-size chunks: O(1) push_back / front / pop_front.
// Storage grows one chunk at a time, only when a push finds every slot
// occupied, and is never released, so a queue that drains and refills to the
// same depth allocates nothing after its first fill — the property
// std::deque lacks (it frees and re-allocates blocks as the queue moves).
// Growing moves at most one chunk's worth of elements and allocates at most
// one chunk beyond the high-water depth, so a deep queue costs about what a
// std::deque costs and never holds an old and a new copy of itself at once
// (a doubling vector would, and over-allocates by up to 2x besides).
//
// pop_front() moves the head element out; its slot keeps a moved-from value
// until a later push overwrites it.

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace tangram::common {

template <typename T>
class FifoRing {
 public:
  static constexpr std::size_t kChunkSlots = 64;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  // Slots allocated so far: the high-water depth, rounded up to a chunk.
  [[nodiscard]] std::size_t capacity() const {
    return chunks_.size() * kChunkSlots;
  }

  [[nodiscard]] const T& front() const { return slot(head_); }

  void push_back(T value) {
    if (size_ == capacity()) grow();
    std::size_t tail = head_ + size_;
    if (tail >= capacity()) tail -= capacity();
    slot(tail) = std::move(value);
    ++size_;
  }

  // Requires !empty().
  T pop_front() {
    T out = std::move(slot(head_));
    if (++head_ == capacity()) head_ = 0;
    --size_;
    return out;
  }

 private:
  T& slot(std::size_t i) { return chunks_[i / kChunkSlots][i % kChunkSlots]; }
  const T& slot(std::size_t i) const {
    return chunks_[i / kChunkSlots][i % kChunkSlots];
  }

  // Full ring: the slots run head..end of storage, then wrap to the newest
  // elements just before head.  Insert a fresh chunk in front of head's
  // chunk and move that chunk's newest elements (those before head) into
  // it: the order stays head, ..., newest, and the free slots now sit
  // between the newest element and head.
  void grow() {
    const std::size_t head_chunk = head_ / kChunkSlots;
    const std::size_t head_offset = head_ % kChunkSlots;
    std::vector<T> fresh(kChunkSlots);
    if (!chunks_.empty())
      for (std::size_t i = 0; i < head_offset; ++i)
        fresh[i] = std::move(chunks_[head_chunk][i]);
    chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(head_chunk),
                   std::move(fresh));
    head_ = (head_ + kChunkSlots) % capacity();
  }

  std::vector<std::vector<T>> chunks_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace tangram::common
