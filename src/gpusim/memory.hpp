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
#include <iterator>
#include <limits>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "gpusim/dense_id_map.hpp"
#include "workload/task.hpp"

namespace micco {

/// Outcome of one eviction: what was removed and whether write-back applies.
struct Eviction {
  TensorId id = kInvalidTensor;
  std::uint64_t bytes = 0;
  bool dirty = false;
  /// Simulated time stamped at allocation, or nullopt when the tensor was
  /// allocated unstamped (telemetry detached).
  std::optional<double> alloc_time_s;
};

/// Resident tensors live in a slot pool: a vector of entries recycled
/// through a free list, with the recency order threaded through the entries
/// as an intrusive doubly linked list of slot indices and a DenseIdMap from
/// tensor id to slot. Nothing is node-allocated, so every query is an array
/// read and the defaulted copy operations are deep copies (the oracle
/// search clones whole simulators per candidate assignment).
class DeviceMemory {
  struct Entry;

 public:
  explicit DeviceMemory(std::uint64_t capacity_bytes);

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

  bool resident(TensorId id) const { return slot_of(id) != kNil; }
  std::size_t resident_count() const { return resident_count_; }

  /// True when `bytes` more can be allocated without eviction.
  bool fits(std::uint64_t bytes) const { return used_ + bytes <= capacity_; }

  /// Allocates a tensor (must not already be resident, must fit). Newly
  /// allocated tensors are the most recently used. `alloc_time_s` stamps
  /// the allocation for the eviction-victim-age histogram; it comes back in
  /// the tensor's Eviction.
  void allocate(TensorId id, std::uint64_t bytes, bool dirty,
                std::optional<double> alloc_time_s = std::nullopt);

  /// Releases a resident tensor.
  void release(TensorId id);

  /// Marks a resident tensor as most recently used (a kernel touched it).
  void touch(TensorId id);

  /// Marks a resident tensor dirty (it became a kernel output) or clean
  /// (it was written back to the host).
  void set_dirty(TensorId id, bool dirty) { entry(id).dirty = dirty; }
  bool is_dirty(TensorId id) const { return entry(id).dirty; }

  /// Pins/unpins a tensor against eviction for the duration of a kernel.
  void pin(TensorId id) { entry(id).pinned = true; }
  void unpin(TensorId id) { entry(id).pinned = false; }

  /// Evicts a specific resident tensor — the victim an eviction policy
  /// (src/mem/) selected. The tensor must be resident and unpinned.
  Eviction evict(TensorId id);

  // -- read-only views for eviction policies (src/mem/) -------------------
  /// Forward range over resident ids in recency order, least recently used
  /// first, walking the entries' intrusive links. Valid until the next
  /// mutation; policies read it within one pick_victim() call. Iteration
  /// order is deterministic (maintained by allocate/touch, never by a hash
  /// map).
  class LruRange {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = TensorId;
      using difference_type = std::ptrdiff_t;
      using pointer = const TensorId*;
      using reference = const TensorId&;

      iterator() = default;
      reference operator*() const { return (*entries_)[slot_].id; }
      iterator& operator++() {
        slot_ = (*entries_)[slot_].next;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++*this;
        return old;
      }
      bool operator==(const iterator& other) const {
        return slot_ == other.slot_;
      }

     private:
      friend class LruRange;
      iterator(const std::vector<Entry>* entries, std::uint32_t slot)
          : entries_(entries), slot_(slot) {}
      const std::vector<Entry>* entries_ = nullptr;
      std::uint32_t slot_ = kNil;
    };

    iterator begin() const { return iterator(entries_, head_); }
    iterator end() const { return iterator(entries_, kNil); }

   private:
    friend class DeviceMemory;
    LruRange(const std::vector<Entry>* entries, std::uint32_t head)
        : entries_(entries), head_(head) {}
    const std::vector<Entry>* entries_;
    std::uint32_t head_;
  };

  LruRange lru_order() const { return LruRange(&entries_, lru_head_); }
  bool pinned(TensorId id) const { return entry(id).pinned; }
  std::uint64_t bytes_of(TensorId id) const { return entry(id).bytes; }

  /// All resident tensor ids in ascending id order (sorted at the emission
  /// point so slot reuse never leaks into lost-tensor accounting, residency
  /// rebuilds or reports); used by tests and by the cluster's failure
  /// handling.
  std::vector<TensorId> resident_ids() const;

 private:
  /// "No slot": the end of a link chain, or an id with no resident entry.
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();

  struct Entry {
    TensorId id = kInvalidTensor;
    std::uint64_t bytes = 0;
    std::optional<double> alloc_time_s;  ///< see allocate()
    /// Recency links (towards the LRU / MRU end); a free entry chains the
    /// free list through `next`.
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    bool dirty = false;
    bool pinned = false;
  };

  /// Id-to-slot table entry; default-constructed means "not resident".
  struct SlotRef {
    std::uint32_t slot = kNil;
  };

  std::uint32_t slot_of(TensorId id) const { return slots_.get(id).slot; }
  /// The resident entry of `id` (must be resident).
  const Entry& entry(TensorId id) const;
  Entry& entry(TensorId id);

  void link_back(std::uint32_t slot);  ///< append at the MRU end
  void unlink(std::uint32_t slot);

  std::uint64_t capacity_ = 0;
  std::uint64_t used_ = 0;
  std::size_t resident_count_ = 0;
  std::vector<Entry> entries_;
  DenseIdMap<SlotRef> slots_;
  std::uint32_t lru_head_ = kNil;  ///< least recently used
  std::uint32_t lru_tail_ = kNil;  ///< most recently used
  std::uint32_t free_head_ = kNil;
};

}  // namespace micco
