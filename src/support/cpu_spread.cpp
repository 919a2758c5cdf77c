#include "support/cpu_spread.h"

#include <atomic>

#ifdef __linux__
#include <sched.h>
#endif

namespace gks {

int spread_current_thread() {
#ifdef __linux__
  static std::atomic<unsigned> next{0};
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  const int count = CPU_COUNT(&allowed);
  if (count <= 1) return -1;
  int skip = static_cast<int>(next.fetch_add(1, std::memory_order_relaxed) %
                              static_cast<unsigned>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    // Restricting the mask migrates the thread right away; widening it
    // again leaves the thread where it now is.
    if (sched_setaffinity(0, sizeof one, &one) != 0) return -1;
    sched_setaffinity(0, sizeof allowed, &allowed);
    return cpu;
  }
#endif
  return -1;
}

}  // namespace gks
