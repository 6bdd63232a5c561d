#include "gpusim/memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

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

/// The recency order as a vector, least recently used first.
std::vector<TensorId> lru(const DeviceMemory& mem) {
  std::vector<TensorId> order;
  for (const TensorId id : mem.lru_order()) order.push_back(id);
  return order;
}

using Ids = std::vector<TensorId>;

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

TEST(DeviceMemory, CopyEvolvesIndependentlyOfItsSource) {
  // The oracle clones whole simulators per candidate assignment; a probe
  // execution on the clone must never show through in the original.
  DeviceMemory source(1000);
  source.allocate(1, 100, false);
  source.allocate(2, 200, true);
  source.pin(2);

  DeviceMemory copy = source;
  copy.touch(1);
  copy.unpin(2);
  copy.allocate(3, 300, false);
  EXPECT_EQ(lru(copy), (Ids{2, 1, 3}));
  EXPECT_EQ(copy.used(), 600u);
  EXPECT_FALSE(copy.pinned(2));

  EXPECT_EQ(lru(source), (Ids{1, 2}));
  EXPECT_EQ(source.used(), 300u);
  EXPECT_TRUE(source.pinned(2));
  EXPECT_FALSE(source.resident(3));

  // And the other way round, through copy assignment.
  DeviceMemory assigned(50);
  assigned = source;
  source.release(1);
  EXPECT_EQ(lru(assigned), (Ids{1, 2}));
  EXPECT_EQ(assigned.capacity(), 1000u);
  EXPECT_EQ(assigned.bytes_of(1), 100u);
  EXPECT_EQ(lru(source), (Ids{2}));
}

TEST(DeviceMemory, ReusedSlotKeepsRecencyOrder) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, false);  // a
  mem.allocate(2, 100, false);  // b
  mem.allocate(3, 100, false);  // c
  mem.release(2);
  mem.allocate(4, 100, false);  // d takes b's freed slot
  EXPECT_EQ(lru(mem), (Ids{1, 3, 4}));
  EXPECT_EQ(mem.resident_ids(), (Ids{1, 3, 4}));
  for (const TensorId expected : {1u, 3u, 4u}) {
    const auto ev = evict_oldest(mem);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->id, expected);
  }
}

TEST(DeviceMemory, HugeIdsTakeTheSpillPath) {
  // Ids at or above 2^20 live in the id table's hash spill, not its dense
  // vector; every operation must behave exactly as for small ids.
  constexpr TensorId kBig = TensorId{1} << 20;
  DeviceMemory mem(1000);
  mem.allocate(kBig + 7, 100, false);
  mem.allocate(3, 100, false);
  mem.allocate(kBig, 200, true);
  EXPECT_TRUE(mem.resident(kBig + 7));
  EXPECT_FALSE(mem.resident(kBig + 1));
  EXPECT_EQ(mem.bytes_of(kBig), 200u);

  mem.touch(kBig + 7);
  EXPECT_EQ(lru(mem), (Ids{3, kBig, kBig + 7}));
  EXPECT_EQ(mem.resident_ids(), (Ids{3, kBig, kBig + 7}));

  mem.pin(kBig);
  mem.release(3);
  const auto ev = evict_oldest(mem);  // kBig is pinned: kBig+7 goes
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->id, kBig + 7);
  EXPECT_FALSE(mem.resident(kBig + 7));
  EXPECT_TRUE(mem.pinned(kBig));
  EXPECT_EQ(mem.resident_ids(), (Ids{kBig}));

  mem.unpin(kBig);
  const Eviction last = mem.evict(kBig);
  EXPECT_TRUE(last.dirty);
  EXPECT_EQ(last.bytes, 200u);
  EXPECT_EQ(mem.resident_count(), 0u);
  EXPECT_EQ(mem.used(), 0u);
}

TEST(DeviceMemory, AllocationStampTravelsWithEviction) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, false, 2.5);
  mem.allocate(2, 100, false);
  EXPECT_EQ(mem.evict(1).alloc_time_s, std::optional<double>(2.5));
  EXPECT_FALSE(mem.evict(2).alloc_time_s.has_value());
}

}  // namespace
}  // namespace micco
