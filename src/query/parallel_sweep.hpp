// Window-scoped SLOG-2 sweeps over a Navigator.
//
// Both ride Navigator::visit_window, which decodes the touched frames in
// parallel (through the shared frame cache) and then feeds their drawables
// serially in traversal order — the same feed a plain visit produces, so
// the results are byte-identical at any thread count. legend_window's
// per-rank nesting sweep is sharded later, in LegendSweep::totals.
#pragma once

#include <cstdint>

#include "query/slog2_rollup.hpp"
#include "slog2/slog2.hpp"

namespace query {

/// Legend sweep of `nav`'s window [a, b]; `threads` = 0 means hardware.
LegendSweep legend_window(slog2::Navigator& nav, double a, double b,
                          int threads = 0);

/// Occupancy of `nav`'s window [a, b] over `nranks` ranks.
WindowOccupancy occupancy_window(slog2::Navigator& nav, std::int32_t nranks,
                                 double a, double b, int threads = 0);

}  // namespace query
