#include "calibrate.h"

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

double ProcessCpuNow() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

}  // namespace

double CalibrationCpuSeconds() {
  uint64_t state = 0x9E3779B97F4A7C15ULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<uint32_t> values(1'500'000);
  for (uint32_t& v : values) v = static_cast<uint32_t>(next());
  std::unordered_map<uint64_t, uint32_t> counts;
  const double start = ProcessCpuNow();
  std::sort(values.begin(), values.end());
  for (int i = 0; i < 500'000; ++i) ++counts[next() % 750'000];
  const double seconds = ProcessCpuNow() - start;
  // Reads the results, so the compiler keeps the work.
  volatile uint64_t sink = values[values.size() / 2] + counts.size();
  (void)sink;
  return seconds;
}

}  // namespace perfbench
