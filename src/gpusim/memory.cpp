#include "gpusim/memory.hpp"

#include <algorithm>

namespace micco {

DeviceMemory::DeviceMemory(std::uint64_t capacity_bytes)
    : capacity_(capacity_bytes) {
  MICCO_EXPECTS(capacity_bytes > 0);
}

const DeviceMemory::Entry& DeviceMemory::entry(TensorId id) const {
  const std::uint32_t slot = slot_of(id);
  MICCO_EXPECTS_MSG(slot != kNil, "access to a non-resident tensor");
  return entries_[slot];
}

DeviceMemory::Entry& DeviceMemory::entry(TensorId id) {
  const std::uint32_t slot = slot_of(id);
  MICCO_EXPECTS_MSG(slot != kNil, "access to a non-resident tensor");
  return entries_[slot];
}

void DeviceMemory::link_back(std::uint32_t slot) {
  Entry& e = entries_[slot];
  e.prev = lru_tail_;
  e.next = kNil;
  if (lru_tail_ == kNil) {
    lru_head_ = slot;
  } else {
    entries_[lru_tail_].next = slot;
  }
  lru_tail_ = slot;
}

void DeviceMemory::unlink(std::uint32_t slot) {
  const Entry& e = entries_[slot];
  if (e.prev == kNil) {
    lru_head_ = e.next;
  } else {
    entries_[e.prev].next = e.next;
  }
  if (e.next == kNil) {
    lru_tail_ = e.prev;
  } else {
    entries_[e.next].prev = e.prev;
  }
}

void DeviceMemory::allocate(TensorId id, std::uint64_t bytes, bool dirty,
                            std::optional<double> alloc_time_s) {
  MICCO_EXPECTS_MSG(!resident(id), "double allocation of a tensor");
  MICCO_EXPECTS_MSG(fits(bytes), "allocate() requires prior eviction");
  std::uint32_t slot = free_head_;
  if (slot == kNil) {
    MICCO_EXPECTS(entries_.size() < kNil);
    slot = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  } else {
    free_head_ = entries_[slot].next;
  }
  Entry& e = entries_[slot];
  e.id = id;
  e.bytes = bytes;
  e.alloc_time_s = alloc_time_s;
  e.dirty = dirty;
  e.pinned = false;
  link_back(slot);
  slots_[id].slot = slot;
  used_ += bytes;
  ++resident_count_;
}

void DeviceMemory::release(TensorId id) {
  const std::uint32_t slot = slot_of(id);
  MICCO_EXPECTS_MSG(slot != kNil, "release of a non-resident tensor");
  used_ -= entries_[slot].bytes;
  unlink(slot);
  entries_[slot].next = free_head_;
  free_head_ = slot;
  slots_[id].slot = kNil;
  --resident_count_;
}

void DeviceMemory::touch(TensorId id) {
  const std::uint32_t slot = slot_of(id);
  MICCO_EXPECTS_MSG(slot != kNil, "touch of a non-resident tensor");
  if (slot == lru_tail_) return;
  unlink(slot);
  link_back(slot);
}

Eviction DeviceMemory::evict(TensorId id) {
  const std::uint32_t slot = slot_of(id);
  MICCO_EXPECTS_MSG(slot != kNil, "eviction of a non-resident tensor");
  const Entry& e = entries_[slot];
  MICCO_EXPECTS_MSG(!e.pinned, "eviction of a pinned tensor");
  const Eviction ev{id, e.bytes, e.dirty, e.alloc_time_s};
  release(id);
  return ev;
}

std::vector<TensorId> DeviceMemory::resident_ids() const {
  std::vector<TensorId> ids;
  ids.reserve(resident_count_);
  for (const TensorId id : lru_order()) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace micco
