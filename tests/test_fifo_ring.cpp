#include "common/fifo_ring.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "common/rng.h"

namespace tangram::common {
namespace {

TEST(FifoRing, MatchesDequeUnderRandomPushPop) {
  FifoRing<int> ring;
  std::deque<int> model;
  Rng rng(5, 3);
  for (int step = 0; step < 20000; ++step) {
    // Drift the depth up and down so growth happens with a wrapped head.
    const bool push = model.empty() || rng.bernoulli(step % 4000 < 2000
                                                         ? 0.7
                                                         : 0.3);
    if (push) {
      ring.push_back(step);
      model.push_back(step);
    } else {
      ASSERT_EQ(ring.front(), model.front());
      ASSERT_EQ(ring.pop_front(), model.front());
      model.pop_front();
    }
    ASSERT_EQ(ring.size(), model.size());
    ASSERT_EQ(ring.empty(), model.empty());
  }
}

TEST(FifoRing, GrowsInOrderWhileWrappedMidChunk) {
  constexpr int kChunk = static_cast<int>(FifoRing<int>::kChunkSlots);
  FifoRing<int> ring;
  int next_in = 0;
  int next_out = 0;
  for (; next_in < kChunk; ++next_in) ring.push_back(next_in);
  for (; next_out < 10; ++next_out) ASSERT_EQ(ring.pop_front(), next_out);
  // Refill past full: the head sits 10 slots into its chunk when the ring
  // grows, with the newest elements wrapped in front of it.
  for (int i = 0; i < 3 * kChunk; ++i) ring.push_back(next_in++);
  while (!ring.empty()) ASSERT_EQ(ring.pop_front(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(FifoRing, KeepsHighWaterCapacityAcrossDrains) {
  FifoRing<int> ring;
  for (int i = 0; i < 100; ++i) ring.push_back(i);
  const std::size_t capacity = ring.capacity();
  EXPECT_GE(capacity, 100u);
  for (int round = 0; round < 10; ++round) {
    while (!ring.empty()) (void)ring.pop_front();
    for (int i = 0; i < 100; ++i) ring.push_back(i);
  }
  EXPECT_EQ(ring.capacity(), capacity);
}

TEST(FifoRing, MovesOwnershipOut) {
  FifoRing<std::unique_ptr<int>> ring;
  for (int i = 0; i < 20; ++i) ring.push_back(std::make_unique<int>(i));
  for (int i = 0; i < 20; ++i) {
    const std::unique_ptr<int> head = ring.pop_front();
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(*head, i);
  }
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace tangram::common
