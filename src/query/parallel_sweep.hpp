// Window-scoped SLOG-2 sweeps over a Navigator.
//
// Both are one serial Navigator::visit_window feed: the touched frames are
// decoded (or fetched from the shared frame cache) one at a time in the
// walk's order. legend_window's per-rank nesting sweep is sharded later, in
// LegendSweep::totals. The `threads` arguments are accepted for existing
// callers and not read; the results never depended on them.
#pragma once

#include <cstdint>

#include "query/slog2_rollup.hpp"
#include "slog2/slog2.hpp"

namespace query {

/// Legend sweep of `nav`'s window [a, b]; `threads` is not read.
LegendSweep legend_window(slog2::Navigator& nav, double a, double b,
                          int threads = 0);

/// Occupancy of `nav`'s window [a, b] over `nranks` ranks; `threads` is not
/// read.
WindowOccupancy occupancy_window(slog2::Navigator& nav, std::int32_t nranks,
                                 double a, double b, int threads = 0);

}  // namespace query
