// Live telemetry pump: a background sampler for long-running services.
//
// The registry (obs/registry.hpp) is scrape-on-demand; benches scrape once
// at the end. A service needs a *pump*: a thread that scrapes every
// `interval`, keeps a bounded in-memory ring of recent snapshots (the
// "what did the last minute look like" buffer), and optionally appends each
// snapshot as a JSONL line / rewrites a Prometheus textfile for node-
// exporter-style collection. The pump also refreshes the flight recorder's
// pre-rendered registry buffer, so a crash dump carries metrics at most one
// interval stale.
//
// Scrape safety contract (tested under TSan in obs_telemetry_test): the
// pump calls registry collectors from ITS thread while workers mutate the
// underlying counters. That is only race-free for counter surfaces that are
// atomic (shard_counters, fps path_counters, waiter_hub stats, bounded
// admission counters, log2_histogram buckets, loop_stats snapshots taken
// under the loop's own lock). Plain-field owner-written counters
// (wf_counters with collect_stats) keep their read-at-quiescence contract —
// do not register those with a live pump.
//
// Concurrency: the pump is OBSERVABILITY code, not queue code — kpq-lint's
// wait-free purity rule (R2) does not apply outside core/scale/storage, and
// a mutex + condition variable is the right tool for a sampler thread.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/timing.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"

namespace kpq::obs {

struct telemetry_options {
  /// Scrape period. The first scrape happens one interval after start().
  std::uint64_t interval_ms = 100;
  /// Bounded snapshot ring: oldest snapshots are evicted beyond this.
  std::size_t ring_capacity = 128;
  /// Append one flat-JSON line per scrape ({"ts_ns":...,"metric":...}).
  /// Empty = off.
  std::string jsonl_path{};
  /// Rewrite a Prometheus textfile per scrape (write-then-rename, so a
  /// concurrent textfile collector never reads a torn file). Empty = off.
  std::string prom_path{};
  /// Refresh the flight recorder's pre-rendered registry buffer per scrape
  /// (no-op unless the recorder is armed).
  bool refresh_flight_recorder = true;
};

class telemetry_pump {
 public:
  struct sample {
    std::uint64_t ts_ns = 0;
    metrics_snapshot snap;
  };

  explicit telemetry_pump(const registry& reg, telemetry_options opts = {})
      : reg_(reg), opts_(std::move(opts)) {}

  telemetry_pump(const telemetry_pump&) = delete;
  telemetry_pump& operator=(const telemetry_pump&) = delete;

  ~telemetry_pump() { stop(); }

  void start() {
    std::lock_guard<std::mutex> lk(mu_);
    if (running_) return;
    stop_ = false;
    running_ = true;
    thr_ = std::thread([this] { run(); });
  }

  /// Idempotent; joins the sampler thread. One final scrape is taken on the
  /// way out so short-lived runs still record something.
  void stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!running_) return;
      stop_ = true;
    }
    cv_.notify_all();
    thr_.join();
    {
      std::lock_guard<std::mutex> lk(mu_);
      running_ = false;
    }
  }

  /// One synchronous scrape (also what the pump thread runs per interval).
  /// Snapshotting happens OUTSIDE the ring lock — collectors may be slow.
  void scrape_once() {
    sample s;
    s.snap = reg_.snapshot();
    s.ts_ns = now_ns();
    const std::string json = to_json_line(s);
    const std::string prom =
        opts_.prom_path.empty() ? std::string{} : to_prometheus(s.snap);
    {
      std::lock_guard<std::mutex> lk(mu_);
      ring_.push_back(std::move(s));
      while (ring_.size() > opts_.ring_capacity) ring_.pop_front();
      ++scrapes_;
    }
    if (!opts_.jsonl_path.empty()) append_jsonl(json);
    if (!opts_.prom_path.empty()) rewrite_prom(prom);
    if (opts_.refresh_flight_recorder &&
        flight_recorder::instance().armed()) {
      flight_recorder::instance().refresh_registry();
    }
  }

  /// Copy of the retained snapshots, oldest first.
  std::vector<sample> recent() const {
    std::lock_guard<std::mutex> lk(mu_);
    return {ring_.begin(), ring_.end()};
  }

  std::uint64_t scrapes() const {
    std::lock_guard<std::mutex> lk(mu_);
    return scrapes_;
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      // kpq-block: sampler thread parks between scrapes by design.
      cv_.wait_for(lk, std::chrono::milliseconds(opts_.interval_ms),
                   [this] { return stop_; });
      const bool last = stop_;
      lk.unlock();
      scrape_once();
      lk.lock();
      if (last) return;
    }
  }

  std::string to_json_line(const sample& s) const {
    // ts_ns leads so `grep | sort` style tooling stays trivial.
    std::string out = "{\"ts_ns\":" + std::to_string(s.ts_ns);
    for (const metric& m : s.snap) {
      out += ",\"" + json_escape(m.name) + "\":" + format_number(m.value);
    }
    out += "}";
    return out;
  }

  void append_jsonl(const std::string& line) {
    // kpq-block: telemetry file I/O on the sampler thread, never a worker.
    std::FILE* f = std::fopen(opts_.jsonl_path.c_str(), "a");
    if (f == nullptr) return;
    std::fputs(line.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }

  void rewrite_prom(const std::string& text) {
    const std::string tmp = opts_.prom_path + ".tmp";
    // kpq-block: telemetry file I/O on the sampler thread, never a worker.
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) return;
    std::fputs(text.c_str(), f);
    std::fclose(f);
    std::rename(tmp.c_str(), opts_.prom_path.c_str());
  }

  const registry& reg_;
  telemetry_options opts_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool running_ = false;
  std::deque<sample> ring_;
  std::uint64_t scrapes_ = 0;
  std::thread thr_;
};

}  // namespace kpq::obs
