// MemCache: allocation, growth/shrink, isolation canaries, and an
// allocator property sweep.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/memcache.hpp"
#include "testbed/cluster.hpp"

namespace xrdma::core {

using FreeRanges = std::map<std::uint64_t, std::uint64_t>;

// Read-only view of MemCache's per-MR free-range maps, in MR order.
struct MemCacheProbe {
  static constexpr std::uint32_t kGuardBytes = MemCache::kGuardBytes;

  static std::vector<FreeRanges> free_ranges(const MemCache& cache) {
    std::vector<FreeRanges> out;
    for (const auto& region : cache.mrs_) out.push_back(region.free_ranges);
    return out;
  }
  static std::vector<std::uint64_t> mr_addrs(const MemCache& cache) {
    std::vector<std::uint64_t> out;
    for (const auto& region : cache.mrs_) out.push_back(region.info.addr);
    return out;
  }
};

namespace {

struct CacheFixture : ::testing::Test {
  testbed::Cluster cluster;
  rnic::Rnic& nic = cluster.rnic(0);
};

TEST_F(CacheFixture, AllocGivesWritableRegisteredMemory) {
  MemCache cache(nic);
  MemBlock b = cache.alloc(1024);
  ASSERT_TRUE(b.valid());
  std::uint8_t* p = cache.data(b);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x7e, 1024);
  EXPECT_EQ(nic.mr_ptr(b.addr, 1024), p);
}

TEST_F(CacheFixture, DistinctBlocksDoNotOverlap) {
  MemCache cache(nic);
  std::vector<MemBlock> blocks;
  for (int i = 0; i < 100; ++i) blocks.push_back(cache.alloc(4096));
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    for (std::size_t j = i + 1; j < blocks.size(); ++j) {
      const bool disjoint =
          blocks[i].addr + blocks[i].len <= blocks[j].addr ||
          blocks[j].addr + blocks[j].len <= blocks[i].addr;
      EXPECT_TRUE(disjoint) << i << " vs " << j;
    }
  }
}

TEST_F(CacheFixture, GrowsWhenFirstMrExhausted) {
  MemCacheConfig cfg;
  cfg.mr_bytes = 64 * 1024;
  MemCache cache(nic, cfg);
  EXPECT_EQ(cache.num_mrs(), 1u);
  std::vector<MemBlock> blocks;
  for (int i = 0; i < 40; ++i) {
    MemBlock b = cache.alloc(4096);
    ASSERT_TRUE(b.valid());
    blocks.push_back(b);
  }
  EXPECT_GT(cache.num_mrs(), 1u);
  EXPECT_GT(cache.stats().grow_events, 1u);
}

TEST_F(CacheFixture, ShrinkReleasesIdleMrs) {
  MemCacheConfig cfg;
  cfg.mr_bytes = 64 * 1024;
  MemCache cache(nic, cfg);
  std::vector<MemBlock> blocks;
  for (int i = 0; i < 40; ++i) blocks.push_back(cache.alloc(4096));
  const std::size_t grown = cache.num_mrs();
  for (const auto& b : blocks) cache.free(b);
  cache.shrink();
  EXPECT_EQ(cache.num_mrs(), MemCache::kMinMrs);
  EXPECT_LT(cache.num_mrs(), grown);
  EXPECT_GT(cache.stats().shrink_events, 0u);
}

TEST_F(CacheFixture, InUseBytesTracksAllocFreeCycle) {
  MemCache cache(nic);
  EXPECT_EQ(cache.stats().in_use_bytes, 0u);
  MemBlock a = cache.alloc(1000);
  MemBlock b = cache.alloc(2000);
  const std::uint64_t used = cache.stats().in_use_bytes;
  EXPECT_GE(used, 3000u);  // plus guard bands
  cache.free(a);
  cache.free(b);
  EXPECT_EQ(cache.stats().in_use_bytes, 0u);
}

TEST_F(CacheFixture, OversizedAllocationFails) {
  MemCacheConfig cfg;
  cfg.mr_bytes = 64 * 1024;
  MemCache cache(nic, cfg);
  MemBlock b = cache.alloc(128 * 1024);
  EXPECT_FALSE(b.valid());
  EXPECT_EQ(cache.stats().failed_allocs, 1u);
}

TEST_F(CacheFixture, IsolationDetectsOutOfBoundsWrite) {
  MemCacheConfig cfg;
  cfg.isolation = true;
  MemCache cache(nic, cfg);
  int violations = 0;
  cache.set_violation_handler([&](const MemBlock&) { ++violations; });

  MemBlock b = cache.alloc(256);
  std::uint8_t* p = cache.data(b);
  p[256] = 0xff;  // classic off-by-one past the buffer
  cache.free(b);
  EXPECT_EQ(violations, 1);
  EXPECT_EQ(cache.stats().guard_violations, 1u);

  MemBlock ok = cache.alloc(256);
  std::memset(cache.data(ok), 1, 256);  // in-bounds is fine
  cache.free(ok);
  EXPECT_EQ(violations, 1);
}

TEST_F(CacheFixture, IsolationDetectsEveryGuardByte) {
  constexpr std::uint32_t kGuard = MemCacheProbe::kGuardBytes;
  constexpr std::uint32_t kLen = 200;
  MemCache cache(nic);
  int violations = 0;
  cache.set_violation_handler([&](const MemBlock&) { ++violations; });
  // Byte i < kGuard sits in the front band, the rest in the back band.
  for (std::uint32_t i = 0; i < 2 * kGuard; ++i) {
    SCOPED_TRACE(i);
    MemBlock b = cache.alloc(kLen);
    ASSERT_TRUE(b.valid());
    std::uint8_t* p = cache.data(b);
    std::uint8_t* hit = i < kGuard ? p - kGuard + i : p + kLen + (i - kGuard);
    *hit ^= 0xff;
    cache.free(b);
    EXPECT_EQ(cache.stats().guard_violations, i + 1);
    EXPECT_EQ(violations, static_cast<int>(i + 1));
  }
}

TEST_F(CacheFixture, UnderflowWriteAlsoDetected) {
  MemCache cache(nic);
  int violations = 0;
  cache.set_violation_handler([&](const MemBlock&) { ++violations; });
  MemBlock b = cache.alloc(128);
  cache.data(b)[-1] = 0;  // write before the block
  cache.free(b);
  EXPECT_EQ(violations, 1);
}

TEST_F(CacheFixture, CoalescingAllowsLargeAllocAfterFragmentedFrees) {
  MemCacheConfig cfg;
  cfg.mr_bytes = 1u << 20;
  cfg.max_mrs = 1;  // force reuse of the single MR
  cfg.isolation = false;
  MemCache cache(nic, cfg);
  std::vector<MemBlock> blocks;
  for (int i = 0; i < 16; ++i) blocks.push_back(cache.alloc(60 * 1024));
  EXPECT_FALSE(cache.alloc(120 * 1024).valid());
  // Free two adjacent blocks: coalescing must make room for a double-size
  // allocation.
  cache.free(blocks[3]);
  cache.free(blocks[4]);
  EXPECT_TRUE(cache.alloc(120 * 1024).valid());
}

TEST_F(CacheFixture, ReserveAdmitsOnlyPrivilegedAllocations) {
  MemCacheConfig cfg;
  cfg.mr_bytes = 64 * 1024;
  cfg.max_mrs = 1;
  cfg.isolation = false;
  cfg.reserve_bytes = 16 * 1024;
  MemCache cache(nic, cfg);
  // Fill the unreserved part of the budget.
  std::vector<MemBlock> data;
  while (true) {
    MemBlock b = cache.alloc(4096);
    if (!b.valid()) break;
    data.push_back(b);
  }
  EXPECT_GT(cache.stats().reserve_denials, 0u);
  // The denial left the reserve intact: privileged (control-plane) traffic
  // still gets memory out of the headroom.
  MemBlock ctrl = cache.alloc(4096, /*privileged=*/true);
  EXPECT_TRUE(ctrl.valid());
  EXPECT_EQ(cache.stats().privileged_alloc_fails, 0u);
  cache.free(ctrl);
  for (const auto& b : data) cache.free(b);
}

TEST_F(CacheFixture, StarvedCacheFailsCleanlyAtMrCap) {
  // max_mrs=1 is the starved configuration the channel alloc-audit tests
  // run against: the cap must surface as invalid blocks + failed_allocs,
  // never as unbounded growth.
  MemCacheConfig cfg;
  cfg.mr_bytes = 64 * 1024;
  cfg.max_mrs = 1;
  cfg.isolation = false;
  MemCache cache(nic, cfg);
  std::vector<MemBlock> blocks;
  while (true) {
    MemBlock b = cache.alloc(8 * 1024);
    if (!b.valid()) break;
    blocks.push_back(b);
  }
  EXPECT_GT(cache.stats().failed_allocs, 0u);
  EXPECT_EQ(cache.num_mrs(), 1u);
  EXPECT_LE(cache.stats().occupied_bytes, cache.budget_bytes());
  for (const auto& b : blocks) cache.free(b);
  EXPECT_EQ(cache.stats().in_use_bytes, 0u);
}

// First-fit over per-MR offset -> length maps, carved and coalesced with
// plain erase/insert: the allocator MemCache must match placement for
// placement, with the same free ranges left behind.
struct FirstFitModel {
  std::uint64_t mr_bytes = 0;
  std::size_t max_mrs = 0;
  std::vector<FreeRanges> regions;

  // (MR index, offset) of the carved range.
  std::optional<std::pair<std::size_t, std::uint64_t>> alloc(
      std::uint64_t need) {
    auto carve = [&](FreeRanges& ranges) -> std::optional<std::uint64_t> {
      for (auto it = ranges.begin(); it != ranges.end(); ++it) {
        if (it->second < need) continue;
        const std::uint64_t offset = it->first;
        const std::uint64_t remaining = it->second - need;
        ranges.erase(it);
        if (remaining > 0) ranges[offset + need] = remaining;
        return offset;
      }
      return std::nullopt;
    };
    for (std::size_t i = 0; i < regions.size(); ++i) {
      if (auto offset = carve(regions[i])) return std::pair{i, *offset};
    }
    if (regions.size() >= max_mrs) return std::nullopt;
    regions.push_back({{0, mr_bytes}});
    if (auto offset = carve(regions.back())) {
      return std::pair{regions.size() - 1, *offset};
    }
    return std::nullopt;
  }

  void free(std::size_t region, std::uint64_t offset, std::uint64_t need) {
    FreeRanges& ranges = regions[region];
    auto it = ranges.emplace(offset, need).first;
    if (it != ranges.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second == it->first) {
        prev->second += it->second;
        ranges.erase(it);
        it = prev;
      }
    }
    auto next = std::next(it);
    if (next != ranges.end() && it->first + it->second == next->first) {
      it->second += next->second;
      ranges.erase(next);
    }
  }
};

// Allocator property sweep: random alloc/free sequences preserve
// accounting, never hand out overlapping blocks, and place every block
// exactly where the reference first-fit model does.
class MemCacheProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemCacheProperty, RandomAllocFreeKeepsInvariants) {
  constexpr std::uint32_t kGuard = MemCacheProbe::kGuardBytes;
  testbed::Cluster cluster;
  MemCacheConfig cfg;
  cfg.mr_bytes = 256 * 1024;
  MemCache cache(cluster.rnic(0), cfg);
  FirstFitModel model{cfg.mr_bytes, cfg.max_mrs,
                      MemCacheProbe::free_ranges(cache)};
  Rng rng(GetParam());

  struct Live {
    MemBlock block;
    std::size_t region;
    std::uint64_t offset;
  };
  std::vector<Live> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.chance(0.55)) {
      // Half the requests share one size, so freed holes get refilled
      // exactly, as a channel's bounce ring refills its own slots.
      const std::uint32_t len =
          rng.chance(0.5)
              ? 4192
              : static_cast<std::uint32_t>(rng.uniform(1, 32 * 1024));
      MemBlock b = cache.alloc(len);
      const auto want = model.alloc(len + 2 * kGuard);
      ASSERT_EQ(b.valid(), want.has_value()) << "step " << step;
      if (!b.valid()) continue;
      const auto [region, offset] = *want;
      ASSERT_EQ(b.addr,
                MemCacheProbe::mr_addrs(cache).at(region) + offset + kGuard)
          << "step " << step;
      // No overlap with any live block.
      for (const auto& l : live) {
        const bool disjoint = b.addr + b.len <= l.block.addr ||
                              l.block.addr + l.block.len <= b.addr;
        ASSERT_TRUE(disjoint);
      }
      live.push_back({b, region, offset});
    } else {
      const std::size_t i =
          static_cast<std::size_t>(rng.next_below(live.size()));
      cache.free(live[i].block);
      model.free(live[i].region, live[i].offset,
                 live[i].block.len + 2 * kGuard);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
    ASSERT_EQ(MemCacheProbe::free_ranges(cache), model.regions)
        << "step " << step;
  }
  for (const auto& l : live) cache.free(l.block);
  EXPECT_EQ(cache.stats().in_use_bytes, 0u);
  EXPECT_EQ(cache.stats().guard_violations, 0u);
  cache.shrink();
  EXPECT_EQ(cache.num_mrs(), MemCache::kMinMrs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemCacheProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace xrdma::core
