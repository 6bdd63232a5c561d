// Id-keyed storage for the simulator's per-tensor state (DESIGN.md §9).
//
// Every generator assigns TensorIds sequentially from 0, so a flat vector
// indexed by id answers a lookup with one bounds check and one load — no
// hashing, no node allocation, no rehash. Ids at or above kDenseLimit (a
// hand-written or pathological workload) spill into a hash map so a single
// huge id cannot blow the table up. The map is plain-copyable: the oracle
// clones whole simulators per candidate assignment.
//
// Entries are created default-constructed on first operator[] and are never
// erased; callers reset an entry's fields instead. The spill map is a
// lookup table only — it is never iterated, so its hash layout cannot reach
// any output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "workload/task.hpp"

namespace micco {

template <typename T>
class DenseIdMap {
 public:
  /// Ids below this live in the dense table.
  static constexpr std::uint64_t kDenseLimit = 1ULL << 20;

  /// The entry of `id`, default-constructed on first access.
  T& operator[](TensorId id) {
    if (id < kDenseLimit) {
      const auto slot = static_cast<std::size_t>(id);
      if (slot >= dense_.size()) dense_.resize(slot + 1);
      return dense_[slot];
    }
    return sparse_[id];
  }

  /// The entry of `id`, or nullptr when it was never created. Dense ids
  /// below the table's high-water mark always have a (possibly
  /// default-valued) entry.
  const T* find(TensorId id) const {
    if (id < kDenseLimit) {
      const auto slot = static_cast<std::size_t>(id);
      return slot < dense_.size() ? &dense_[slot] : nullptr;
    }
    const auto it = sparse_.find(id);
    return it == sparse_.end() ? nullptr : &it->second;
  }

  /// The entry of `id` by value, or a default-constructed T when absent.
  T get(TensorId id) const {
    const T* entry = find(id);
    return entry == nullptr ? T{} : *entry;
  }

 private:
  std::vector<T> dense_;                    ///< ids < kDenseLimit
  std::unordered_map<TensorId, T> sparse_;  ///< spill for huge ids
};

}  // namespace micco
