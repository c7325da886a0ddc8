// Host speed gauge of the end-to-end benchmark (README.md in this
// directory, "Host noise and the gauge").
//
// The gauge times a fixed kernel of 64x64->128-bit multiply-adds, the
// shape of the program's field arithmetic but none of its code, so no
// change to the program moves a reading. While started, a timer signal
// takes a reading on the calling thread every kEvery of wall time, in
// the middle of whatever the program is doing. On a shared host the
// readings follow the core clock and a neighbour busy on the same
// physical core, which together slow multiply-heavy code by up to 2x
// and change within tens of milliseconds.
//
// A measured interval has the readings' own time taken out (taken())
// and is scaled by kReferenceUs / the mean reading over it (scale()), so
// it reads as it would on a core where one pass of the kernel takes
// kReferenceUs. The contention changes too fast for any reading but
// those taken during an interval, or right beside it, to speak for it.
// One gauge runs per process.
#pragma once

#include <chrono>
#include <cstddef>

namespace maabe::e2e::gauge {

using Clock = std::chrono::steady_clock;

/// Reported times are scaled to a core where a reading is this long.
inline constexpr double kReferenceUs = 50;
/// Wall time between two readings.
inline constexpr auto kEvery = std::chrono::milliseconds(5);
/// scale() averages at least this many readings.
inline constexpr size_t kNearest = 8;

/// Arms the timer on the calling thread; the first reading is taken at
/// once. Throws std::runtime_error when the timer cannot be set up.
void start();
/// Disarms the timer; the readings stay.
void stop();
/// Wall time spent taking readings so far.
Clock::duration taken();
/// Reference time per wall time over [t0, t1]: kReferenceUs / the mean
/// of the readings taken in it, or, when fewer than kNearest were, of
/// the kNearest readings nearest to it; 1 before the first reading.
double scale(Clock::time_point t0, Clock::time_point t1);
/// Mean of every reading so far, in microseconds; 0 before the first.
double mean_us();
size_t readings();

}  // namespace maabe::e2e::gauge
