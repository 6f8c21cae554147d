// The apps workload's program: a message-bound Pilot heat-ring (1-D heat
// diffusion with a ring-neighbour halo exchange and two user states per
// step), after examples/heat_ring.cpp. Its shape is fixed, so the trace's
// structure, and with it the converter's warning count, is the same for
// every seed; the seed only sets the initial temperatures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct HeatInput {
  int workers = 16;
  int cells_per = 256;
  int steps = 1000;
  std::vector<double> rod;  ///< workers * cells_per initial temperatures
};

HeatInput make_heat_input(std::uint64_t seed, int workers, int cells_per, int steps);

struct HeatResult {
  int status = -1;               ///< pilot::run status (0 = success)
  std::uint64_t checksum = 0;    ///< hash of the final rod's bytes
  std::uint64_t messages = 0;    ///< PI_Write calls the program made
};

/// Run the program through pilot::run with `pilot_args` (the -pi... options).
HeatResult run_heat(const HeatInput& in, const std::vector<std::string>& pilot_args);

}  // namespace perfbench
