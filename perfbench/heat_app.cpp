#include "heat_app.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "bench.hpp"
#include "pilot/pi.hpp"
#include "pilot/runtime.hpp"
#include "util/prng.hpp"

namespace perfbench {

namespace {

constexpr int kMaxWorkers = 64;

// PI_* programs keep their topology in globals; pilot::run runs one program
// at a time, and run_heat resets this state before every run.
struct HeatState {
  const HeatInput* in = nullptr;
  int state_exchange = -1;
  int state_sweep = -1;
  PI_CHANNEL* scatter_ch[kMaxWorkers] = {};
  PI_CHANNEL* gather_ch[kMaxWorkers] = {};
  PI_CHANNEL* right[kMaxWorkers] = {};  // worker i -> worker i+1
  PI_CHANNEL* left[kMaxWorkers] = {};   // worker i+1 -> worker i
  std::atomic<std::uint64_t> writes{0};
  std::vector<double> result;
};
HeatState g;

void write_counted(PI_CHANNEL* ch, double v) {
  g.writes.fetch_add(1, std::memory_order_relaxed);
  PI_Write(ch, "%lf", v);
}

int slab(int index, void*) {
  const int n = g.in->cells_per;
  const int workers = g.in->workers;
  std::vector<double> u(static_cast<std::size_t>(n) + 2, 0.0);
  PI_Read(g.scatter_ch[index], "%*lf", n, u.data() + 1);
  std::vector<double> next(u.size());
  for (int step = 0; step < g.in->steps; ++step) {
    PI_StateBegin(g.state_exchange);
    if (index + 1 < workers)
      write_counted(g.right[index], u[static_cast<std::size_t>(n)]);
    if (index > 0) write_counted(g.left[index - 1], u[1]);
    if (index > 0) PI_Read(g.right[index - 1], "%lf", &u[0]);
    if (index + 1 < workers)
      PI_Read(g.left[index], "%lf", &u[static_cast<std::size_t>(n) + 1]);
    PI_StateEnd(g.state_exchange);

    PI_StateBegin(g.state_sweep);
    for (int i = 1; i <= n; ++i) {
      const auto k = static_cast<std::size_t>(i);
      next[k] = u[k] + 0.25 * (u[k - 1] - 2 * u[k] + u[k + 1]);
    }
    next[0] = u[0];
    next[u.size() - 1] = u[u.size() - 1];
    u.swap(next);
    PI_Compute(1e-7 * n);
    PI_StateEnd(g.state_sweep);
  }
  g.writes.fetch_add(1, std::memory_order_relaxed);
  PI_Write(g.gather_ch[index], "%*lf", n, u.data() + 1);
  return 0;
}

int heat_main(int argc, char** argv) {
  PI_Configure(&argc, &argv);
  const int workers = g.in->workers;
  g.state_exchange = PI_DefineState("HaloExchange", "orange");
  g.state_sweep = PI_DefineState("Sweep", "SteelBlue");

  std::vector<PI_PROCESS*> procs;
  for (int i = 0; i < workers; ++i) {
    PI_PROCESS* w = PI_CreateProcess(slab, i, nullptr);
    PI_SetName(w, ("Slab" + std::to_string(i)).c_str());
    procs.push_back(w);
    g.scatter_ch[i] = PI_CreateChannel(PI_MAIN, w);
    g.gather_ch[i] = PI_CreateChannel(w, PI_MAIN);
  }
  for (int i = 0; i + 1 < workers; ++i)
    g.right[i] = PI_CreateChannel(procs[static_cast<std::size_t>(i)],
                                  procs[static_cast<std::size_t>(i) + 1]);
  if (workers > 1) {
    PI_CHANNEL** reversed = PI_CopyChannels(PI_REVERSE, g.right, workers - 1);
    for (int i = 0; i + 1 < workers; ++i) g.left[i] = reversed[i];
    std::free(reversed);
  }
  PI_BUNDLE* scatter = PI_CreateBundle(PI_SCATTER, g.scatter_ch, workers);
  PI_BUNDLE* gather = PI_CreateBundle(PI_GATHER, g.gather_ch, workers);

  PI_StartAll();
  std::vector<double> rod = g.in->rod;
  PI_Scatter(scatter, "%*lf", g.in->cells_per, rod.data());
  PI_Gather(gather, "%*lf", g.in->cells_per, rod.data());
  g.result = std::move(rod);
  PI_StopMain(0);
  return 0;
}

}  // namespace

HeatInput make_heat_input(std::uint64_t seed, int workers, int cells_per, int steps) {
  HeatInput in;
  in.workers = std::min(workers, kMaxWorkers);
  in.cells_per = cells_per;
  in.steps = steps;
  util::SplitMix64 rng(seed);
  in.rod.resize(static_cast<std::size_t>(in.workers) *
                static_cast<std::size_t>(cells_per));
  for (double& v : in.rod) v = rng.chance(0.01) ? rng.uniform(100.0, 1000.0) : 0.0;
  return in;
}

HeatResult run_heat(const HeatInput& in, const std::vector<std::string>& pilot_args) {
  g.in = &in;
  g.writes = 0;
  g.result.clear();
  std::vector<std::string> args = {"heat_ring"};
  args.insert(args.end(), pilot_args.begin(), pilot_args.end());
  const pilot::RunResult run = pilot::run(args, heat_main);
  HeatResult out;
  out.status = run.aborted || run.deadlock ? -1 : run.status;
  out.messages = g.writes.load();
  if (g.result.size() == in.rod.size())
    out.checksum = fnv1a(g.result.data(), g.result.size() * sizeof(double));
  g.in = nullptr;
  return out;
}

}  // namespace perfbench
