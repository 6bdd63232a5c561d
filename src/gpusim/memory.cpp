#include "gpusim/memory.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace micco {

DeviceMemory::DeviceMemory(std::uint64_t capacity_bytes)
    : capacity_(capacity_bytes) {
  MICCO_EXPECTS(capacity_bytes > 0);
}

DeviceMemory::DeviceMemory(const DeviceMemory& other)
    : capacity_(other.capacity_), used_(other.used_), lru_(other.lru_) {
  // Entries must point into OUR list, not the source's.
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    Entry entry = other.entries_.at(*it);
    entry.lru_pos = it;
    entries_.emplace(*it, entry);
  }
}

DeviceMemory& DeviceMemory::operator=(const DeviceMemory& other) {
  if (this == &other) return *this;
  DeviceMemory copy(other);
  capacity_ = copy.capacity_;
  used_ = copy.used_;
  lru_ = std::move(copy.lru_);
  entries_ = std::move(copy.entries_);
  return *this;
}

void DeviceMemory::allocate(TensorId id, std::uint64_t bytes, bool dirty) {
  MICCO_EXPECTS_MSG(!resident(id), "double allocation of a tensor");
  MICCO_EXPECTS_MSG(fits(bytes), "allocate() requires prior eviction");
  lru_.push_back(id);
  Entry entry;
  entry.bytes = bytes;
  entry.dirty = dirty;
  entry.pinned = false;
  entry.lru_pos = std::prev(lru_.end());
  entries_.emplace(id, entry);
  used_ += bytes;
}

void DeviceMemory::release(TensorId id) {
  const auto it = entries_.find(id);
  MICCO_EXPECTS_MSG(it != entries_.end(), "release of a non-resident tensor");
  used_ -= it->second.bytes;
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
}

void DeviceMemory::touch(TensorId id) {
  const auto it = entries_.find(id);
  MICCO_EXPECTS_MSG(it != entries_.end(), "touch of a non-resident tensor");
  lru_.erase(it->second.lru_pos);
  lru_.push_back(id);
  it->second.lru_pos = std::prev(lru_.end());
}

void DeviceMemory::set_dirty(TensorId id, bool dirty) {
  const auto it = entries_.find(id);
  MICCO_EXPECTS(it != entries_.end());
  it->second.dirty = dirty;
}

bool DeviceMemory::is_dirty(TensorId id) const {
  const auto it = entries_.find(id);
  MICCO_EXPECTS(it != entries_.end());
  return it->second.dirty;
}

void DeviceMemory::pin(TensorId id) {
  const auto it = entries_.find(id);
  MICCO_EXPECTS(it != entries_.end());
  it->second.pinned = true;
}

void DeviceMemory::unpin(TensorId id) {
  const auto it = entries_.find(id);
  MICCO_EXPECTS(it != entries_.end());
  it->second.pinned = false;
}

Eviction DeviceMemory::evict(TensorId id) {
  const auto it = entries_.find(id);
  MICCO_EXPECTS_MSG(it != entries_.end(), "eviction of a non-resident tensor");
  MICCO_EXPECTS_MSG(!it->second.pinned, "eviction of a pinned tensor");
  Eviction ev{id, it->second.bytes, it->second.dirty};
  release(id);
  return ev;
}

std::vector<TensorId> DeviceMemory::resident_ids() const {
  std::vector<TensorId> ids;
  ids.reserve(entries_.size());
  // entries_ is a hash map; its iteration order is unspecified and must not
  // escape this class (determinism gate, DESIGN.md §5e). Sorting here, at
  // the emission point, keeps every consumer — failure-path lost-tensor
  // accounting, residency rebuilds, tests — independent of hash layout.
  for (const auto& [id, entry] : entries_) {
    (void)entry;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace micco
