#include "support/cpu_spread.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

namespace gks {
namespace {

#ifdef __linux__

cpu_set_t affinity() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  EXPECT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
  return mask;
}

TEST(CpuSpread, LeavesTheAffinityMaskAsItWas) {
  std::thread([] {
    const cpu_set_t before = affinity();
    const int cpu = spread_current_thread();
    const cpu_set_t after = affinity();
    EXPECT_TRUE(CPU_EQUAL(&before, &after));
    if (cpu >= 0) {
      EXPECT_TRUE(CPU_ISSET(cpu, &before));
    }
  }).join();
}

TEST(CpuSpread, ConsecutiveCallsVisitEveryAllowedCpu) {
  const cpu_set_t allowed = affinity();
  const int count = CPU_COUNT(&allowed);
  if (count <= 1) GTEST_SKIP() << "one allowed CPU: nothing to spread over";
  std::set<int> seen;
  for (int i = 0; i < count; ++i) {
    std::thread([&seen] { seen.insert(spread_current_thread()); }).join();
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(count));
  for (int cpu : seen) EXPECT_TRUE(CPU_ISSET(cpu, &allowed)) << cpu;
}

#endif

}  // namespace
}  // namespace gks
