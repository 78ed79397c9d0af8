// MemCache: per-context pool of RDMA-enabled memory (§IV-E).
//
// Manages identical 4 MB MRs (LITE showed many small MRs degrade the NIC;
// the paper registers 4 MB regions). Grows by registering a new MR when
// capacity runs out, shrinks by deregistering MRs that fall idle. Optional
// isolation mode surrounds every allocation with canary guard bands so
// out-of-bounds writes are detected at free time (§VI-C: raw RDMA gives the
// developer nothing here).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>

#include "analysis/recorder.hpp"
#include "common/enum_names.hpp"
#include "rnic/rnic.hpp"

namespace xrdma::core {

struct MemBlock {
  std::uint64_t addr = 0;  // usable range start (past the front guard)
  std::uint32_t len = 0;
  std::uint32_t lkey = 0;
  std::uint32_t rkey = 0;
  bool valid() const { return len != 0; }
};

struct MemCacheConfig {
  std::uint64_t mr_bytes = 4u << 20;  // each registration (paper: 4 MB)
  std::size_t max_mrs = 4096;
  bool isolation = true;              // guard bands + canaries
  bool real_memory = true;  // synthetic MRs for content-free benches
  /// Headroom (bytes of the max_mrs*mr_bytes budget) only privileged
  /// allocations may dip into. Keeps the control plane (ACK/NOP/keepalive/
  /// FIN) live when data traffic has exhausted the pool. 0 disables.
  std::uint64_t reserve_bytes = 0;
};

/// Occupancy ladder for graceful degradation (§VI): `soft` sheds new
/// rendezvous pulls and triggers shrink, `hard` sheds all new data work and
/// keeps only the control plane.
#define XRDMA_MEM_PRESSURES(X)                                                \
  X(normal, "normal") X(soft, "soft") X(hard, "hard")

enum class MemPressure { XRDMA_MEM_PRESSURES(XRDMA_ENUM_ID) };
inline constexpr auto kMemPressureNames =
    enum_names<MemPressure>({XRDMA_MEM_PRESSURES(XRDMA_ENUM_NAME)});

struct MemCacheStats {
  std::uint64_t occupied_bytes = 0;  // registered capacity
  std::uint64_t in_use_bytes = 0;    // currently allocated
  std::uint64_t alloc_calls = 0;
  std::uint64_t free_calls = 0;
  std::uint64_t grow_events = 0;
  std::uint64_t shrink_events = 0;
  std::uint64_t guard_violations = 0;
  std::uint64_t failed_allocs = 0;
  std::uint64_t reserve_denials = 0;         // non-privileged hit the reserve
  std::uint64_t privileged_alloc_fails = 0;  // control plane truly starved
};

class MemCache {
 public:
  /// MRs registered up front; shrink never goes below this.
  static constexpr std::size_t kMinMrs = 1;

  MemCache(rnic::Rnic& nic, MemCacheConfig config = {});
  ~MemCache();
  MemCache(const MemCache&) = delete;
  MemCache& operator=(const MemCache&) = delete;

  /// Allocate `len` usable bytes of registered memory. Grows the pool if
  /// needed; returns an invalid block when the MR cap is reached or the
  /// request exceeds one MR's usable size. When a reserve is configured,
  /// only `privileged` (control-plane) allocations may use the last
  /// `reserve_bytes` of the budget.
  MemBlock alloc(std::uint32_t len, bool privileged = false);

  /// Return a block. In isolation mode the guard canaries are verified
  /// first; a violation is counted and reported via the violation handler
  /// (how the analysis framework surfaces memory-corruption bugs).
  void free(const MemBlock& block);

  /// Direct host pointer into a block (nullptr in synthetic mode).
  std::uint8_t* data(const MemBlock& block, std::uint32_t offset = 0);

  /// Deregister MRs that are completely free, down to kMinMrs. The Context
  /// calls it every memcache_shrink_period and when memory pressure rises.
  void shrink();

  /// Total capacity this cache may ever register.
  std::uint64_t budget_bytes() const { return cfg_.max_mrs * cfg_.mr_bytes; }

  const MemCacheStats& stats() const { return stats_; }
  std::size_t num_mrs() const { return mrs_.size(); }

  void set_violation_handler(std::function<void(const MemBlock&)> h) {
    on_violation_ = std::move(h);
  }

  /// Flight-recorder tap. `which` tags the pool in the event stream
  /// (0 = control, 1 = data).
  void set_recorder(analysis::FlightRecorder* recorder, std::uint16_t which) {
    recorder_ = recorder;
    which_ = which;
  }

 private:
  friend struct MemCacheProbe;  // tests read the free-range maps

  // Canary band on each side of an allocation in isolation mode.
  static constexpr std::uint32_t kGuardBytes = 64;

  struct Region {
    rnic::MrInfo info;
    // Free ranges as offset -> length, coalesced.
    std::map<std::uint64_t, std::uint64_t> free_ranges;
    std::uint64_t used = 0;
  };

  Region* grow();
  void write_guards(Region& region, std::uint64_t offset, std::uint32_t len);
  bool check_guards(Region& region, std::uint64_t offset, std::uint32_t len);
  std::uint32_t padded(std::uint32_t len) const {
    return cfg_.isolation ? len + 2 * kGuardBytes : len;
  }

  rnic::Rnic& nic_;
  MemCacheConfig cfg_;
  std::list<Region> mrs_;
  MemCacheStats stats_;
  std::function<void(const MemBlock&)> on_violation_;
  analysis::FlightRecorder* recorder_ = nullptr;
  std::uint16_t which_ = 0;
};

}  // namespace xrdma::core
