// run_bounded: event_loop::run() that fails instead of hanging. A watchdog
// thread stops a loop that has not returned within the limit, so a lost
// wakeup (a post that never reaches a parked loop) fails its test within a
// bounded wait rather than stalling the whole suite.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stop_token>
#include <thread>

#include "async/event_loop.hpp"

namespace kpq::testing {

/// Run `loop` until it returns; false when the watchdog had to stop it.
inline bool run_bounded(async::event_loop& loop,
                        std::chrono::milliseconds limit =
                            std::chrono::seconds(30)) {
  std::mutex m;
  std::condition_variable_any cv;
  bool stopped = false;
  std::jthread watchdog([&](std::stop_token st) {
    std::unique_lock lk(m);
    (void)cv.wait_for(lk, st, limit, [] { return false; });
    if (!st.stop_requested()) {  // the limit passed first
      stopped = true;
      loop.stop();
    }
  });
  loop.run();
  watchdog.request_stop();
  watchdog.join();
  return !stopped;
}

}  // namespace kpq::testing
