#include "src/core/spsc_queue.h"

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace asketch {
namespace {

TEST(SpscQueueTest, StartsEmpty) {
  SpscQueue<int> queue(8);
  EXPECT_TRUE(queue.Empty());
  int value = 0;
  EXPECT_FALSE(queue.TryPop(&value));
}

TEST(SpscQueueTest, PushPopSingleElement) {
  SpscQueue<int> queue(8);
  EXPECT_TRUE(queue.TryPush(42));
  EXPECT_FALSE(queue.Empty());
  int value = 0;
  ASSERT_TRUE(queue.TryPop(&value));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(queue.Empty());
}

TEST(SpscQueueTest, FifoOrder) {
  SpscQueue<int> queue(16);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(queue.TryPush(i));
  }
  for (int i = 0; i < 10; ++i) {
    int value = -1;
    ASSERT_TRUE(queue.TryPop(&value));
    EXPECT_EQ(value, i);
  }
}

TEST(SpscQueueTest, FillsUpAndRejects) {
  SpscQueue<int> queue(4);
  int pushed = 0;
  while (queue.TryPush(pushed)) ++pushed;
  // Rounded to a power of two minus the sacrificed slot: at least the
  // requested capacity fits.
  EXPECT_GE(pushed, 4);
  int value;
  ASSERT_TRUE(queue.TryPop(&value));
  EXPECT_EQ(value, 0);
  EXPECT_TRUE(queue.TryPush(999));  // space freed
}

TEST(SpscQueueTest, HasRoomForCountsFreeSlots) {
  SpscQueue<int> queue(3);  // a 3-slot ring
  ASSERT_EQ(queue.capacity(), 3u);
  int value;
  // Each round advances both indices by 3 on the 4-slot ring, so the
  // rounds start at every offset and cross the wrap point: at every fill
  // level, HasRoomFor(n) is true exactly when n pushes fit.
  for (int round = 0; round < 8; ++round) {
    for (size_t used = 0; used <= 3; ++used) {
      for (size_t n = 0; n <= 4; ++n) {
        EXPECT_EQ(queue.HasRoomFor(n), n <= 3 - used)
            << "round " << round << " used " << used << " n " << n;
      }
      if (used < 3) {
        ASSERT_TRUE(queue.TryPush(static_cast<int>(used)));
      }
    }
    EXPECT_FALSE(queue.TryPush(-1));
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(queue.TryPop(&value));
  }
}

TEST(SpscQueueTest, WrapAroundManyTimes) {
  SpscQueue<uint32_t> queue(8);
  uint32_t next_push = 0, next_pop = 0;
  for (int round = 0; round < 1000; ++round) {
    while (queue.TryPush(next_push)) ++next_push;
    uint32_t value;
    while (queue.TryPop(&value)) {
      ASSERT_EQ(value, next_pop);
      ++next_pop;
    }
  }
  EXPECT_EQ(next_push, next_pop);
  EXPECT_GT(next_push, 1000u);
}

TEST(SpscQueueTest, TwoThreadStressPreservesSequence) {
  SpscQueue<uint64_t> queue(64);
  // Modest count: on a single hardware thread the producer's failed
  // pushes must yield to let the consumer run at all.
  constexpr uint64_t kCount = 100'000;
  std::thread producer([&queue] {
    for (uint64_t i = 0; i < kCount; ++i) {
      while (!queue.TryPush(i)) {
        std::this_thread::yield();
      }
    }
  });
  uint64_t expected = 0;
  uint64_t checksum = 0;
  while (expected < kCount) {
    uint64_t value;
    if (queue.TryPop(&value)) {
      ASSERT_EQ(value, expected);
      checksum += value;
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(queue.Empty());
  EXPECT_EQ(checksum, kCount * (kCount - 1) / 2);
}

TEST(SpscQueueTest, StructPayloads) {
  struct Message {
    uint8_t kind;
    uint32_t key;
    uint32_t weight;
  };
  SpscQueue<Message> queue(8);
  ASSERT_TRUE(queue.TryPush(Message{1, 42, 7}));
  Message out{0, 0, 0};
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out.kind, 1);
  EXPECT_EQ(out.key, 42u);
  EXPECT_EQ(out.weight, 7u);
}

}  // namespace
}  // namespace asketch
