#include "serve/lru.h"

#include "obs/metrics.h"

namespace lvf2::serve {

HotLru::HotLru(std::size_t capacity) : capacity_(capacity) {}

std::optional<std::string> HotLru::get(std::uint64_t key) {
  static obs::Counter& misses = obs::counter("serve.lru.miss");
  static obs::Counter& hits = obs::counter("serve.lru.hit");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses.add(1);
    return std::nullopt;
  }
  order_.splice(order_.begin(), order_, it->second);
  hits.add(1);
  return it->second->second;
}

void HotLru::put(std::uint64_t key, std::string value) {
  static obs::Counter& stores = obs::counter("serve.lru.store");
  static obs::Counter& evictions = obs::counter("serve.lru.evict");
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(value);
    order_.splice(order_.begin(), order_, it->second);
    return;
  }
  order_.emplace_front(key, std::move(value));
  index_[key] = order_.begin();
  stores.add(1);
  while (order_.size() > capacity_) {
    index_.erase(order_.back().first);
    order_.pop_back();
    evictions.add(1);
  }
}

void HotLru::set_capacity(std::size_t capacity) {
  static obs::Counter& evictions = obs::counter("serve.lru.evict");
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
  while (order_.size() > capacity_) {
    index_.erase(order_.back().first);
    order_.pop_back();
    evictions.add(1);
  }
}

std::size_t HotLru::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return order_.size();
}

}  // namespace lvf2::serve
