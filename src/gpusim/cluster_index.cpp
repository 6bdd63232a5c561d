#include "gpusim/cluster_index.hpp"

#include <algorithm>

namespace micco {

ClusterIndex::ClusterIndex(int num_devices) : num_devices_(num_devices) {
  MICCO_EXPECTS(num_devices >= 1);
  const auto n = static_cast<std::size_t>(num_devices);
  busy_.assign(n, 0.0);
  mem_used_.assign(n, 0);
  mem_capacity_.assign(n, 0);
  alive_mask_.assign((n + 63) / 64, 0);
  for (std::size_t dev = 0; dev < n; ++dev) {
    alive_mask_[dev / 64] |= 1ULL << (dev % 64);
  }
  num_alive_ = num_devices;
}

const std::vector<DeviceId>& ClusterIndex::holders(TensorId id) const {
  // Shared empty result for misses: the common empty-miss case (fresh
  // tensors) must not allocate — this sits on every scheduler's per-decision
  // path.
  static const std::vector<DeviceId> kNoHolders;
  const Residency* res = find(id);
  return res == nullptr ? kNoHolders : res->holders;
}

void ClusterIndex::place(TensorId id, DeviceId dev) {
  const auto bit = static_cast<std::size_t>(checked(dev));
  Residency& res = residency_[id];
  MICCO_ASSERT(!res.holds(dev));
  res.holders.push_back(dev);
  if (bit < 64) {
    res.mask0 |= 1ULL << bit;
  } else {
    const std::size_t word = bit / 64 - 1;
    if (word >= res.mask_ext.size()) res.mask_ext.resize(word + 1, 0);
    res.mask_ext[word] |= 1ULL << (bit % 64);
  }
  res.epoch = ++global_epoch_;
}

void ClusterIndex::remove(TensorId id, DeviceId dev) {
  const auto bit = static_cast<std::size_t>(checked(dev));
  Residency& res = residency_[id];
  MICCO_ASSERT(res.holds(dev));
  const auto pos = std::find(res.holders.begin(), res.holders.end(), dev);
  MICCO_ASSERT(pos != res.holders.end());
  res.holders.erase(pos);
  if (bit < 64) {
    res.mask0 &= ~(1ULL << bit);
  } else {
    res.mask_ext[bit / 64 - 1] &= ~(1ULL << (bit % 64));
  }
  res.epoch = ++global_epoch_;
}

void ClusterIndex::set_alive(DeviceId dev, bool alive) {
  const auto bit = static_cast<std::size_t>(checked(dev));
  const std::uint64_t mask = 1ULL << (bit % 64);
  std::uint64_t& word = alive_mask_[bit / 64];
  const bool was_alive = (word & mask) != 0;
  if (was_alive == alive) return;
  if (alive) {
    word |= mask;
    ++num_alive_;
  } else {
    word &= ~mask;
    --num_alive_;
  }
}

}  // namespace micco
