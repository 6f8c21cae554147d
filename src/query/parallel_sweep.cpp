#include "query/parallel_sweep.hpp"

namespace query {

LegendSweep legend_window(slog2::Navigator& nav, double a, double b,
                          int /*threads*/) {
  LegendSweep sweep;
  nav.visit_window(
      a, b, [&](const slog2::StateDrawable& s) { sweep.add_state(s); },
      [&](const slog2::EventDrawable& e) { sweep.add_event(e); },
      [&](const slog2::ArrowDrawable& ar) { sweep.add_arrow(ar); });
  return sweep;
}

WindowOccupancy occupancy_window(slog2::Navigator& nav, std::int32_t nranks,
                                 double a, double b, int /*threads*/) {
  WindowOccupancy occ(nranks, a, b);
  nav.visit_window(
      a, b, [&](const slog2::StateDrawable& s) { occ.add_state(s); },
      [&](const slog2::EventDrawable& e) { occ.add_event(e); },
      [&](const slog2::ArrowDrawable& ar) { occ.add_arrow(ar); });
  return occ;
}

}  // namespace query
