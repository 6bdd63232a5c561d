#include "gpusim/memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "mem/policy.hpp"

namespace micco {
namespace {

/// Evicts the victim LruPolicy picks — what ClusterSimulator::make_room does
/// per victim when no policy is attached. nullopt when nothing is evictable.
std::optional<Eviction> evict_oldest(DeviceMemory& mem) {
  const std::optional<mem::VictimChoice> victim =
      mem::LruPolicy().pick_victim(mem);
  if (!victim.has_value()) return std::nullopt;
  return mem.evict(victim->id);
}

TEST(DeviceMemory, AllocateTracksUsage) {
  DeviceMemory mem(1000);
  EXPECT_EQ(mem.used(), 0u);
  EXPECT_EQ(mem.free_bytes(), 1000u);
  mem.allocate(1, 300, false);
  EXPECT_EQ(mem.used(), 300u);
  EXPECT_EQ(mem.free_bytes(), 700u);
  EXPECT_TRUE(mem.resident(1));
  EXPECT_EQ(mem.resident_count(), 1u);
}

TEST(DeviceMemory, FitsChecksCapacity) {
  DeviceMemory mem(1000);
  mem.allocate(1, 600, false);
  EXPECT_TRUE(mem.fits(400));
  EXPECT_FALSE(mem.fits(401));
}

TEST(DeviceMemory, ReleaseReturnsBytes) {
  DeviceMemory mem(1000);
  mem.allocate(1, 300, false);
  mem.release(1);
  EXPECT_EQ(mem.used(), 0u);
  EXPECT_FALSE(mem.resident(1));
}

TEST(DeviceMemory, EvictLruPicksOldestUntouched) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, false);
  mem.allocate(2, 100, false);
  mem.allocate(3, 100, false);
  const auto ev = evict_oldest(mem);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->id, 1u);
  EXPECT_EQ(ev->bytes, 100u);
  EXPECT_FALSE(ev->dirty);
}

TEST(DeviceMemory, TouchPromotesToMostRecent) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, false);
  mem.allocate(2, 100, false);
  mem.touch(1);
  const auto ev = evict_oldest(mem);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->id, 2u);
}

TEST(DeviceMemory, PinnedTensorsSurviveEviction) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, false);
  mem.allocate(2, 100, false);
  mem.pin(1);
  const auto ev = evict_oldest(mem);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->id, 2u);  // LRU but pinned tensor 1 is skipped? order: 1 older
}

TEST(DeviceMemory, AllPinnedMeansNoVictim) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, false);
  mem.pin(1);
  EXPECT_FALSE(evict_oldest(mem).has_value());
}

TEST(DeviceMemory, UnpinRestoresEvictability) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, false);
  mem.pin(1);
  mem.unpin(1);
  EXPECT_TRUE(evict_oldest(mem).has_value());
}

TEST(DeviceMemory, DirtyFlagTravelsWithEviction) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, true);
  const auto ev = evict_oldest(mem);
  ASSERT_TRUE(ev.has_value());
  EXPECT_TRUE(ev->dirty);
}

TEST(DeviceMemory, SetDirtyRoundTrip) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, false);
  EXPECT_FALSE(mem.is_dirty(1));
  mem.set_dirty(1, true);
  EXPECT_TRUE(mem.is_dirty(1));
  mem.set_dirty(1, false);
  EXPECT_FALSE(mem.is_dirty(1));
}

TEST(DeviceMemory, ResidentIdsListsAll) {
  DeviceMemory mem(1000);
  mem.allocate(5, 100, false);
  mem.allocate(9, 100, false);
  auto ids = mem.resident_ids();
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 5u);
  EXPECT_EQ(ids[1], 9u);
}

TEST(DeviceMemory, DoubleAllocationAborts) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, false);
  EXPECT_DEATH(mem.allocate(1, 100, false), "double allocation");
}

TEST(DeviceMemory, OverCapacityAllocationAborts) {
  DeviceMemory mem(100);
  EXPECT_DEATH(mem.allocate(1, 200, false), "eviction");
}

TEST(DeviceMemory, ReleaseUnknownAborts) {
  DeviceMemory mem(100);
  EXPECT_DEATH(mem.release(42), "non-resident");
}

TEST(DeviceMemory, EvictByIdReleasesAndReports) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, false);
  mem.allocate(2, 200, true);
  const auto ev = mem.evict(2);
  EXPECT_EQ(ev.id, 2u);
  EXPECT_EQ(ev.bytes, 200u);
  EXPECT_TRUE(ev.dirty);
  EXPECT_FALSE(mem.resident(2));
  EXPECT_EQ(mem.used(), 100u);
}

TEST(DeviceMemory, EvictPinnedOrAbsentAborts) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, false);
  mem.pin(1);
  EXPECT_DEATH(mem.evict(1), "pinned");
  EXPECT_DEATH(mem.evict(42), "");
}

TEST(DeviceMemory, GrowAfterShrinkWithLiveResidents) {
  // A capacity fault shrinks the device; when the fault heals, capacity is
  // restored *above* current usage while the shrunken era's residents are
  // still live. That growth must not assert, and the extra bytes must be
  // allocatable immediately.
  DeviceMemory mem(1000);
  mem.allocate(1, 300, false);
  mem.allocate(2, 300, true);
  mem.set_capacity(700);  // shrink; both residents still fit
  EXPECT_FALSE(mem.fits(200));
  mem.set_capacity(2000);  // the fault heals: grow past the original size
  EXPECT_EQ(mem.used(), 600u);
  EXPECT_TRUE(mem.resident(1));
  EXPECT_TRUE(mem.resident(2));
  EXPECT_TRUE(mem.fits(1400));
  mem.allocate(3, 1400, false);
  EXPECT_EQ(mem.used(), 2000u);
  // LRU order survived the resize cycle untouched.
  const auto ev = evict_oldest(mem);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->id, 1u);
}

TEST(DeviceMemory, EvictionSequenceFollowsLruOrder) {
  DeviceMemory mem(1000);
  for (TensorId id = 0; id < 5; ++id) mem.allocate(id, 100, false);
  mem.touch(0);  // order now: 1,2,3,4,0
  for (const TensorId expected : {1u, 2u, 3u, 4u, 0u}) {
    const auto ev = evict_oldest(mem);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->id, expected);
  }
  EXPECT_EQ(mem.resident_count(), 0u);
}

}  // namespace
}  // namespace micco
