#include "gauge.h"

#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <stdexcept>

namespace maabe::e2e::gauge {

namespace {

struct Reading {
  Clock::time_point at;
  double us;
};

/// Room for over five minutes of readings; pages never written cost no
/// memory, so peak_rss_mb does not count the room.
constexpr size_t kCapacity = size_t{1} << 16;
Reading g_readings[kCapacity];
/// Readings [0, g_count) are complete. Only the signal handler and
/// start() write, both on the measured thread.
std::atomic<size_t> g_count{0};
std::atomic<int64_t> g_taken_ns{0};
timer_t g_timer;
bool g_armed = false;

volatile uint64_t g_seed = 0x9e3779b97f4a7c15ULL;
volatile uint64_t g_sink = 0;

/// 8x8-limb schoolbook products, each feeding the next: about 50 us.
void kernel() {
  uint64_t a[8], b[8], r[16];
  for (int i = 0; i < 8; ++i) {
    a[i] = g_seed * static_cast<uint64_t>(2 * i + 1);
    b[i] = g_seed ^ (0xc2b2ae3d27d4eb4fULL * static_cast<uint64_t>(i + 3));
  }
  for (int rep = 0; rep < 750; ++rep) {
    std::fill(r, r + 16, 0);
    for (int i = 0; i < 8; ++i) {
      unsigned __int128 carry = 0;
      for (int j = 0; j < 8; ++j) {
        carry += static_cast<unsigned __int128>(a[i]) * b[j] + r[i + j];
        r[i + j] = static_cast<uint64_t>(carry);
        carry >>= 64;
      }
      r[i + 8] = static_cast<uint64_t>(carry);
    }
    for (int i = 0; i < 8; ++i) a[i] = r[i + 4] ^ static_cast<uint64_t>(rep);
  }
  g_sink = a[0];
}

/// Async-signal-safe: the clock, the kernel and stores into fixed memory.
void take_reading() {
  const auto t0 = Clock::now();
  kernel();
  const auto t1 = Clock::now();
  const size_t i = g_count.load(std::memory_order_relaxed);
  if (i < kCapacity) {
    g_readings[i] = {t1, std::chrono::duration<double, std::micro>(t1 - t0).count()};
    g_count.store(i + 1, std::memory_order_release);
  }
  g_taken_ns.fetch_add(std::chrono::nanoseconds(Clock::now() - t0).count(),
                       std::memory_order_relaxed);
}

void on_signal(int) {
  const int saved = errno;
  take_reading();
  errno = saved;
}

}  // namespace

void start() {
  if (g_armed) return;
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigevent ev{};
  ev.sigev_notify = SIGEV_THREAD_ID;
  ev.sigev_signo = SIGALRM;
  ev._sigev_un._tid = gettid();
  itimerspec every{};
  every.it_interval.tv_nsec = std::chrono::nanoseconds(kEvery).count();
  every.it_value = every.it_interval;
  if (sigaction(SIGALRM, &sa, nullptr) != 0 ||
      timer_create(CLOCK_MONOTONIC, &ev, &g_timer) != 0)
    throw std::runtime_error("gauge: cannot set up the sampling timer");
  take_reading();
  if (timer_settime(g_timer, 0, &every, nullptr) != 0) {
    timer_delete(g_timer);
    throw std::runtime_error("gauge: cannot arm the sampling timer");
  }
  g_armed = true;
}

void stop() {
  if (!g_armed) return;
  timer_delete(g_timer);
  g_armed = false;
}

Clock::duration taken() {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::nanoseconds(g_taken_ns.load(std::memory_order_relaxed)));
}

double scale(Clock::time_point t0, Clock::time_point t1) {
  const Reading* first = g_readings;
  const Reading* last = g_readings + g_count.load(std::memory_order_acquire);
  const auto before = [](const Reading& r, Clock::time_point t) { return r.at < t; };
  const Reading* lo = std::lower_bound(first, last, t0, before);
  const Reading* hi = std::lower_bound(lo, last, t1, before);
  // Widen [lo, hi) by the nearer neighbour until it holds kNearest.
  while (static_cast<size_t>(hi - lo) < kNearest && (lo != first || hi != last)) {
    if (hi == last || (lo != first && t0 - lo[-1].at <= hi->at - t1)) {
      --lo;
    } else {
      ++hi;
    }
  }
  if (lo == hi) return 1;
  double sum = 0;
  for (const Reading* r = lo; r != hi; ++r) sum += r->us;
  return kReferenceUs * static_cast<double>(hi - lo) / sum;
}

double mean_us() {
  const size_t n = g_count.load(std::memory_order_acquire);
  if (n == 0) return 0;
  double sum = 0;
  for (size_t i = 0; i < n; ++i) sum += g_readings[i].us;
  return sum / static_cast<double>(n);
}

size_t readings() { return g_count.load(std::memory_order_acquire); }

}  // namespace maabe::e2e::gauge
