// TSC→wall-clock calibration for the observability pipeline.
//
// Trace events are recorded in "ticks" (tick_now(): raw TSC on x86-64,
// steady-clock ns elsewhere) because a TSC read is the only timestamp cheap
// enough for the queues' hot paths. Everything that leaves the process —
// the timeline JSON — needs those ticks mapped back to nanoseconds. A
// calibration is a (tick, ns) base pair plus a measured frequency, taken
// once at a convenient moment (startup, or right before converting), good
// to a few percent over bench-length runs.
#pragma once

#include <cstdint>

#include "harness/timing.hpp"
#include "obs/trace_ring.hpp"

namespace kpq::obs {

/// A fixed (tick, ns) correspondence plus the tick rate. Value type: copy
/// freely, embed in reports, pass to converters.
struct tick_calibration {
  double tick_hz = 1e9;         // measured tick frequency
  std::uint64_t base_ticks = 0; // tick_now() at the calibration instant
  std::uint64_t base_ns = 0;    // now_ns() at (approximately) the same instant

  double ticks_per_ns() const noexcept { return tick_hz / 1e9; }

  /// A tick *duration* in nanoseconds.
  double delta_ns(std::uint64_t ticks) const noexcept {
    return static_cast<double>(ticks) * 1e9 / tick_hz;
  }

  /// An absolute tick_now() reading mapped onto the now_ns() timeline.
  double to_ns(std::uint64_t ticks) const noexcept {
    const double rel =
        (static_cast<double>(ticks) - static_cast<double>(base_ticks)) * 1e9 /
        tick_hz;
    return static_cast<double>(base_ns) + rel;
  }

  /// Microseconds relative to the calibration base — the unit Chrome/Perfetto
  /// trace-event JSON expects in its `ts` field.
  double to_us(std::uint64_t ticks) const noexcept {
    return (static_cast<double>(ticks) - static_cast<double>(base_ticks)) *
           1e6 / tick_hz;
  }
};

/// Measure the tick rate against the steady clock over `window_ns` (default
/// ~10 ms; good to a few percent) and capture the base pair. Blocks for the window; call from setup code, not hot paths.
inline tick_calibration calibrate_ticks(std::uint64_t window_ns = 10'000'000) {
  tick_calibration c;
  c.base_ticks = tick_now();
  c.base_ns = now_ns();
#if defined(__x86_64__) || defined(_M_X64)
  std::uint64_t n1 = c.base_ns;
  while (n1 - c.base_ns < window_ns) n1 = now_ns();
  const std::uint64_t t1 = tick_now();
  c.tick_hz = static_cast<double>(t1 - c.base_ticks) * 1e9 /
              static_cast<double>(n1 - c.base_ns);
#else
  (void)window_ns;
  c.tick_hz = 1e9;  // ticks are nanoseconds already
#endif
  return c;
}

}  // namespace kpq::obs
