#include "core/memcache.hpp"

#include <array>
#include <cstring>

namespace xrdma::core {

namespace {
constexpr std::uint8_t kCanary = 0xa5;
}

MemCache::MemCache(rnic::Rnic& nic, MemCacheConfig config)
    : nic_(nic), cfg_(config) {
  for (std::size_t i = 0; i < kMinMrs; ++i) grow();
}

MemCache::~MemCache() {
  for (auto& region : mrs_) nic_.dereg_mr(region.info.lkey);
}

MemCache::Region* MemCache::grow() {
  if (mrs_.size() >= cfg_.max_mrs) return nullptr;
  Region region;
  region.info = nic_.reg_mr(cfg_.mr_bytes, cfg_.real_memory);
  region.free_ranges[0] = cfg_.mr_bytes;
  mrs_.push_back(std::move(region));
  ++stats_.grow_events;
  stats_.occupied_bytes += cfg_.mr_bytes;
  if (recorder_) {
    recorder_->log(nic_.engine().now(), analysis::RecEvent::mem_grow, which_,
                   0, stats_.occupied_bytes);
  }
  return &mrs_.back();
}

MemBlock MemCache::alloc(std::uint32_t len, bool privileged) {
  ++stats_.alloc_calls;
  const std::uint32_t need = padded(len);
  if (need > cfg_.mr_bytes) {
    ++stats_.failed_allocs;
    if (privileged) ++stats_.privileged_alloc_fails;
    return {};
  }
  if (!privileged && cfg_.reserve_bytes > 0) {
    const std::uint64_t budget = budget_bytes();
    const std::uint64_t open =
        budget > cfg_.reserve_bytes ? budget - cfg_.reserve_bytes : 0;
    if (stats_.in_use_bytes + need > open) {
      ++stats_.failed_allocs;
      ++stats_.reserve_denials;
      if (recorder_) {
        recorder_->log(nic_.engine().now(), analysis::RecEvent::mem_denial,
                       which_, 0, len);
      }
      return {};
    }
  }
  auto carve = [&](Region& region) -> MemBlock {
    for (auto it = region.free_ranges.begin(); it != region.free_ranges.end();
         ++it) {
      if (it->second < need) continue;
      const std::uint64_t offset = it->first;
      const std::uint64_t remaining = it->second - need;
      if (remaining > 0) {
        // The tail keeps its place in key order: re-key the node in place.
        auto node = region.free_ranges.extract(it++);
        node.key() = offset + need;
        node.mapped() = remaining;
        region.free_ranges.insert(it, std::move(node));
      } else {
        region.free_ranges.erase(it);
      }
      region.used += need;
      stats_.in_use_bytes += need;
      MemBlock block;
      block.addr = region.info.addr + offset +
                   (cfg_.isolation ? kGuardBytes : 0);
      block.len = len;
      block.lkey = region.info.lkey;
      block.rkey = region.info.rkey;
      if (cfg_.isolation) write_guards(region, offset, len);
      return block;
    }
    return {};
  };

  for (auto& region : mrs_) {
    MemBlock b = carve(region);
    if (b.valid()) return b;
  }
  Region* fresh = grow();
  if (fresh) {
    MemBlock b = carve(*fresh);
    if (b.valid()) return b;
  }
  ++stats_.failed_allocs;
  if (privileged) ++stats_.privileged_alloc_fails;
  return {};
}

void MemCache::free(const MemBlock& block) {
  ++stats_.free_calls;
  for (auto& region : mrs_) {
    if (region.info.lkey != block.lkey) continue;
    const std::uint64_t guard = cfg_.isolation ? kGuardBytes : 0;
    const std::uint64_t offset = block.addr - region.info.addr - guard;
    const std::uint32_t need = padded(block.len);
    if (cfg_.isolation && !check_guards(region, offset, block.len)) {
      ++stats_.guard_violations;
      if (on_violation_) on_violation_(block);
    }
    // Coalescing insert: grow an adjacent range in place where one exists,
    // so a map node is only made or dropped when the range count changes.
    auto& ranges = region.free_ranges;
    auto next = ranges.lower_bound(offset);
    const bool joins_next =
        next != ranges.end() && offset + need == next->first;
    const auto prev = next == ranges.begin() ? ranges.end() : std::prev(next);
    if (prev != ranges.end() && prev->first + prev->second == offset) {
      prev->second += need + (joins_next ? next->second : 0);
      if (joins_next) ranges.erase(next);
    } else if (joins_next) {
      auto node = ranges.extract(next++);
      node.key() = offset;
      node.mapped() += need;
      ranges.insert(next, std::move(node));
    } else {
      ranges.emplace_hint(next, offset, need);
    }
    region.used -= need;
    stats_.in_use_bytes -= need;
    return;
  }
}

std::uint8_t* MemCache::data(const MemBlock& block, std::uint32_t offset) {
  return nic_.mr_ptr(block.addr + offset, block.len - offset);
}

void MemCache::write_guards(Region& region, std::uint64_t offset,
                            std::uint32_t len) {
  if (!cfg_.real_memory) return;
  std::uint8_t* base = nic_.mr_ptr(region.info.addr + offset, padded(len));
  if (!base) return;
  std::memset(base, kCanary, kGuardBytes);
  std::memset(base + kGuardBytes + len, kCanary, kGuardBytes);
}

bool MemCache::check_guards(Region& region, std::uint64_t offset,
                            std::uint32_t len) {
  if (!cfg_.real_memory) return true;
  std::uint8_t* base = nic_.mr_ptr(region.info.addr + offset, padded(len));
  if (!base) return true;
  static const auto band = [] {
    std::array<std::uint8_t, kGuardBytes> b{};
    b.fill(kCanary);
    return b;
  }();
  return std::memcmp(base, band.data(), kGuardBytes) == 0 &&
         std::memcmp(base + kGuardBytes + len, band.data(), kGuardBytes) == 0;
}

void MemCache::shrink() {
  for (auto it = mrs_.begin(); it != mrs_.end() && mrs_.size() > kMinMrs;) {
    if (it->used == 0) {
      nic_.dereg_mr(it->info.lkey);
      stats_.occupied_bytes -= cfg_.mr_bytes;
      ++stats_.shrink_events;
      if (recorder_) {
        recorder_->log(nic_.engine().now(), analysis::RecEvent::mem_shrink,
                       which_, 0, stats_.occupied_bytes);
      }
      it = mrs_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace xrdma::core
