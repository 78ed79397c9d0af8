// Machine-speed probe for the benchmark's host-clock metrics.
//
// The benchmark runs on shared hosts, where neighbours slow this process
// by up to 1.5x for seconds at a time, so the CPU time of a round says as
// much about the neighbours as about the stack. A fixed piece of reference
// work, run between slices of the measured phase, slows with it. The work
// is pointer- and allocation-heavy like the stack's own: ordered-map and
// hash-set churn on a private memory pool, so the stack's heap state
// cannot move it. On a 4-vCPU Xeon VM the ratio of the stack's CPU per op
// to the probe's CPU held within 2% across rounds in which the raw CPU per
// op swung by 30%, where a floating-point loop or a 4 MB pointer chase did
// not track. The host metrics are CPU time scaled by kRefProbeS over the
// probe's time: CPU time on a host where the probe takes kRefProbeS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ctime>
#include <map>
#include <memory_resource>
#include <unordered_set>
#include <vector>

namespace xbench {

/// CPU seconds this process has used.
inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The probe's CPU time on an unloaded 4-vCPU Xeon (Sapphire Rapids) VM.
constexpr double kRefProbeS = 700e-6;

class SpeedProbe {
 public:
  SpeedProbe() {
    keys_.reserve(2 * kLive);
    work();  // grow the containers to their steady size
  }
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Does the reference work once; returns its CPU seconds.
  double run() {
    const double c0 = cpu_seconds();
    work();
    return cpu_seconds() - c0;
  }

 private:
  static constexpr std::size_t kLive = 2048;  // entries kept in each container
  static constexpr int kSteps = 6000;

  void work() {
    for (int i = 0; i < kSteps; ++i) {
      rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
      const std::uint64_t k = (rng_ >> 40) & (2 * kLive - 1);
      if (map_.size() > kLive) map_.erase(map_.begin());
      map_[k] = rng_;
      keys_.insert(k);
      if (keys_.size() > kLive) keys_.erase(keys_.begin());
    }
  }

  // Declared in this order so the pool outlives the containers using it.
  std::vector<std::byte> arena_ = std::vector<std::byte>(std::size_t{2} << 20);
  std::pmr::monotonic_buffer_resource mono_{arena_.data(), arena_.size(),
                                            std::pmr::null_memory_resource()};
  std::pmr::unsynchronized_pool_resource pool_{&mono_};
  std::pmr::map<std::uint64_t, std::uint64_t> map_{&pool_};
  std::pmr::unordered_set<std::uint64_t> keys_{&pool_};
  std::uint64_t rng_ = 0x5eed;
};

}  // namespace xbench
