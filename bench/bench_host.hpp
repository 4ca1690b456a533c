// The CPUs a bench may run on, for the host stamp in its output.
//
// std::thread::hardware_concurrency() counts every CPU of the host, so a run
// pinned with `taskset -c 2` still reads 4 on a 4-CPU machine. The affinity
// mask is what the process actually gets.
#pragma once

#include <sched.h>

#include <thread>

namespace klinq::bench {

/// CPUs in this process's affinity mask (hardware_concurrency where the mask
/// cannot be read).
inline unsigned affinity_cpus() noexcept {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&cpus));
  }
  return std::thread::hardware_concurrency();
}

}  // namespace klinq::bench
