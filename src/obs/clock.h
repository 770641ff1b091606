// Clocks for the observability layer.
//
// Two time bases, deliberately distinct:
//   * now_us()      — monotonic microseconds since process start (steady
//                     clock). Trace spans and latency metrics use this; it
//                     never jumps, so durations are trustworthy.
//   * wall_now_us() — wall-clock microseconds since the Unix epoch (system
//                     clock). The structured event log and FailureReport
//                     stamp records with this so runs can be correlated
//                     with external logs and with each other.
//
// format_iso8601_us renders a wall timestamp as
// "2026-08-06T12:34:56.789012Z" (UTC) for human-facing CSV/JSONL fields.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

namespace swsim::obs {

// Monotonic microseconds since the first call in this process.
double now_us();

// Whole microseconds between two now_us() readings, for "*.us" counters:
// the microsecond boundaries crossed, floor(end) - floor(start). For a
// start phase uniform within its microsecond this is unbiased, where
// truncating end - start drops the fraction (0.5 us low on average, and
// every sub-microsecond span reads 0).
inline std::uint64_t elapsed_us(double start_us, double end_us) {
  return static_cast<std::uint64_t>(std::floor(end_us) -
                                    std::floor(start_us));
}

// Wall-clock microseconds since the Unix epoch.
std::uint64_t wall_now_us();

// UTC ISO-8601 rendering of a wall_now_us() timestamp; microsecond
// precision. Returns an empty string for t_us == 0 ("unknown").
std::string format_iso8601_us(std::uint64_t t_us);

}  // namespace swsim::obs
