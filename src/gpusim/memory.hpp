// Per-device memory manager.
//
// Tracks which tensors are resident in one simulated device memory, with
// capacity accounting, pinning (current kernel operands must not be evicted
// from under the kernel) and the recency order that eviction policies
// (src/mem/) pick victims from in the oversubscription experiments
// (Fig. 11). Dirty tensors (kernel outputs not yet on the host) must be
// written back on eviction; clean cached inputs can be dropped.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "workload/task.hpp"

namespace micco {

/// Outcome of one eviction: what was removed and whether write-back applies.
struct Eviction {
  TensorId id = kInvalidTensor;
  std::uint64_t bytes = 0;
  bool dirty = false;
};

class DeviceMemory {
 public:
  explicit DeviceMemory(std::uint64_t capacity_bytes);

  // Deep copies rebuild the LRU iterators held inside entries (the oracle
  // search clones whole simulators per candidate assignment).
  DeviceMemory(const DeviceMemory& other);
  DeviceMemory& operator=(const DeviceMemory& other);
  DeviceMemory(DeviceMemory&&) = default;
  DeviceMemory& operator=(DeviceMemory&&) = default;
  ~DeviceMemory() = default;

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t used() const { return used_; }
  /// Zero while the device is over-committed (a capacity fault can shrink
  /// capacity below the current usage until evictions catch up).
  std::uint64_t free_bytes() const {
    return capacity_ > used_ ? capacity_ - used_ : 0;
  }

  /// Resizes usable capacity in either direction. Shrinking (spurious
  /// capacity-loss faults) may leave usage transiently above the new
  /// capacity; the owner must evict until fits() holds again before
  /// allocating. Growing (a healed fault restoring memory) is always legal,
  /// even with live residents from the shrunken era — residency, LRU order
  /// and pins are untouched, the extra bytes simply become allocatable.
  void set_capacity(std::uint64_t capacity_bytes) {
    MICCO_EXPECTS(capacity_bytes > 0);
    capacity_ = capacity_bytes;
  }

  bool resident(TensorId id) const { return entries_.contains(id); }
  std::size_t resident_count() const { return entries_.size(); }

  /// True when `bytes` more can be allocated without eviction.
  bool fits(std::uint64_t bytes) const { return used_ + bytes <= capacity_; }

  /// Allocates a tensor (must not already be resident, must fit). Newly
  /// allocated tensors are the most recently used.
  void allocate(TensorId id, std::uint64_t bytes, bool dirty);

  /// Releases a resident tensor.
  void release(TensorId id);

  /// Marks a resident tensor as most recently used (a kernel touched it).
  void touch(TensorId id);

  /// Marks a resident tensor dirty (it became a kernel output) or clean
  /// (it was written back to the host).
  void set_dirty(TensorId id, bool dirty);
  bool is_dirty(TensorId id) const;

  /// Pins/unpins a tensor against eviction for the duration of a kernel.
  void pin(TensorId id);
  void unpin(TensorId id);

  /// Evicts a specific resident tensor — the victim an eviction policy
  /// (src/mem/) selected. The tensor must be resident and unpinned.
  Eviction evict(TensorId id);

  // -- read-only views for eviction policies (src/mem/) -------------------
  /// Residents in recency order, least recently used at the front. The
  /// reference stays valid until the next mutation; policies read it within
  /// one pick_victim() call. Iteration order is deterministic (a list
  /// maintained by touch/allocate, never a hash map).
  const std::list<TensorId>& lru_order() const { return lru_; }
  bool pinned(TensorId id) const { return entries_.at(id).pinned; }
  std::uint64_t bytes_of(TensorId id) const { return entries_.at(id).bytes; }

  /// All resident tensor ids in ascending id order (sorted at the emission
  /// point so the backing hash map's layout never leaks into lost-tensor
  /// accounting, residency rebuilds or reports); used by tests and by the
  /// cluster's failure handling.
  std::vector<TensorId> resident_ids() const;

 private:
  struct Entry {
    std::uint64_t bytes = 0;
    bool dirty = false;
    bool pinned = false;
    std::list<TensorId>::iterator lru_pos;  // position in lru_ (front = LRU)
  };

  std::uint64_t capacity_ = 0;
  std::uint64_t used_ = 0;
  std::list<TensorId> lru_;  // least recently used at the front
  std::unordered_map<TensorId, Entry> entries_;
};

}  // namespace micco
