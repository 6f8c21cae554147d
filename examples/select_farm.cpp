// select_farm: a dynamic task farm exercising the select family —
// PI_Select, PI_TrySelect, PI_ChannelHasData — plus PI_Broadcast and
// PI_Reduce. The master deals out chunks of a numeric integration (area
// under sin-like curve via series) to whichever worker asks first, so fast
// workers naturally take more tasks (dynamic load balancing, the fix the
// paper suggests for load imbalance spotted in the visual log).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "pilot/pi.hpp"
#include "util/cli.hpp"

namespace {

constexpr int kMaxWorkers = 16;

PI_CHANNEL* g_request[kMaxWorkers];  // worker -> main: "give me work"
PI_CHANNEL* g_task[kMaxWorkers];     // main -> worker: [lo, hi) chunk
PI_CHANNEL* g_answer[kMaxWorkers];   // worker -> main: partial result
PI_BUNDLE* g_requests_bundle;
PI_BUNDLE* g_reduce_bundle;

// An intentionally uneven integrand: cost grows with x, so static
// partitioning would be imbalanced — the farm smooths it out.
double slow_term(double x) {
  double acc = 0.0;
  const int spins = 50 + static_cast<int>(x) % 400;
  for (int i = 1; i <= spins; ++i) acc += 1.0 / (x + i) - 1.0 / (x + i + 1);
  return acc;
}

int farm_worker(int index, void*) {
  double my_total = 0.0;
  long tasks_taken = 0;
  for (;;) {
    PI_Write(g_request[index], "%d", index);
    long lo = 0, hi = 0;
    PI_Read(g_task[index], "%ld %ld", &lo, &hi);
    if (lo >= hi) break;  // stop signal
    for (long x = lo; x < hi; ++x) my_total += slow_term(static_cast<double>(x));
    PI_Compute(1e-6 * static_cast<double>(hi - lo));  // simulated cost
    ++tasks_taken;
  }
  PI_Write(g_answer[index], "%lf %ld", my_total, tasks_taken);
  return 0;
}

}  // namespace

int main(int argc, char* argv[]) {
  // Pilot strips its own -pi... options inside PI_Configure.
  PI_Configure(&argc, &argv);
  util::ArgParser args(argc, argv);
  const int workers =
      static_cast<int>(std::min<long long>(args.get_int_or("workers", 4), kMaxWorkers));
  const long range = args.get_int_or("range", 100000);
  const long chunk = args.get_int_or("chunk", 2500);

  for (int i = 0; i < workers; ++i) {
    PI_PROCESS* w = PI_CreateProcess(farm_worker, i, nullptr);
    PI_SetName(w, ("Farmhand" + std::to_string(i)).c_str());
    g_request[i] = PI_CreateChannel(w, PI_MAIN);
    g_task[i] = PI_CreateChannel(PI_MAIN, w);
    g_answer[i] = PI_CreateChannel(w, PI_MAIN);
  }
  g_requests_bundle = PI_CreateBundle(PI_SELECT_B, g_request, workers);
  g_reduce_bundle = PI_CreateBundle(PI_REDUCE, g_answer, workers);

  PI_StartAll();

  // Deal chunks to whichever worker asks first.
  long next = 0;
  int stopped = 0;
  while (stopped < workers) {
    const int who = PI_Select(g_requests_bundle);
    int token = 0;
    PI_Read(g_request[who], "%d", &token);
    if (next < range) {
      const long hi = std::min(next + chunk, range);
      PI_Write(g_task[who], "%ld %ld", next, hi);
      next = hi;
    } else {
      PI_Write(g_task[who], "%ld %ld", 0L, 0L);  // stop
      ++stopped;
    }
  }

  // Workers send (partial total, tasks taken); PI_Reduce folds both — the
  // messages are read pairwise per channel, so formats must match.
  double grand_total = 0.0;
  long total_tasks = 0;
  PI_Reduce(g_reduce_bundle, PI_SUM, "%lf %ld", &grand_total, &total_tasks);

  std::printf("farm: %ld tasks over %d workers, total = %.6f\n", total_tasks,
              workers, grand_total);
  std::printf("expected tasks = %ld\n", (range + chunk - 1) / chunk);

  PI_StopMain(0);
  return 0;
}
