// Open-loop frame generator shared by the service benchmark and its
// self-test.
//
// Frame i is due at start + i / rate, whatever happened to the frames
// before it. The sender waits until a frame is due, sends it, and waits for
// its ack (the caller's send function returns on the ack). Each frame's ack
// latency is taken from its *due* time, so a stall also charges the frames
// that queued behind it instead of silently lowering the offered rate. How
// late the sender itself started each send is reported separately: it is
// non-zero only when the sender was still blocked on an earlier frame (or
// overslept), which is what tells a stalled service apart from a slow
// generator.

#ifndef LDPHH_SERVEBENCH_OPEN_LOOP_H_
#define LDPHH_SERVEBENCH_OPEN_LOOP_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/status.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct OpenLoopResult {
  std::vector<double> ack_ms;   ///< Per frame: due time -> ack.
  std::vector<double> late_ms;  ///< Per frame: due time -> send started.
  std::vector<double> send_ms;  ///< Per frame: send started -> ack.
  uint64_t failed = 0;          ///< Frames whose send returned an error.
};

constexpr std::chrono::microseconds kSpin{300};

/// Sends \p frames frames at \p frames_per_s from \p start. \p send(i) sends
/// frame i and returns once it is acked; it runs on the calling thread.
template <typename SendFn>
OpenLoopResult RunOpenLoop(size_t frames, double frames_per_s,
                           Clock::time_point start, SendFn&& send) {
  OpenLoopResult r;
  r.ack_ms.reserve(frames);
  r.late_ms.reserve(frames);
  r.send_ms.reserve(frames);
  const std::chrono::duration<double> period(1.0 / frames_per_s);
  for (size_t i = 0; i < frames; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    period * static_cast<double>(i));
    // Sleep to just short of the due time and spin the rest: a timer
    // wake-up of an idle CPU can take longer than the service's own
    // latency, and it would be charged to the frame.
    if (Clock::now() < due - kSpin) std::this_thread::sleep_until(due - kSpin);
    while (Clock::now() < due) {
    }
    const Clock::time_point sent = Clock::now();
    const ldphh::Status status = send(i);
    const Clock::time_point acked = Clock::now();
    if (!status.ok()) ++r.failed;
    r.ack_ms.push_back(MsBetween(due, acked));
    r.late_ms.push_back(MsBetween(due, sent));
    r.send_ms.push_back(MsBetween(sent, acked));
  }
  return r;
}

}  // namespace servebench

#endif  // LDPHH_SERVEBENCH_OPEN_LOOP_H_
