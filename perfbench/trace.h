#pragma once

// Outside-in tracing for the daily-scan benchmark: decorators installed
// through the library's public seams (StudyOptions::endpoint_factory,
// DailyObserver, WireResponder), each recording spans and per-day counters
// in memory.  Nothing here runs in an untraced run — the end-to-end metrics
// are always taken on the default code path.
//
// Threading: a TimedEndpoint belongs to one shard and is only touched by
// that shard's worker thread during a day and by the coordinating thread
// between days (the Study joins its workers before run_day returns).  The
// TimedResponder runs on the socket server's loop thread; everything the
// coordinating thread reads from the server side goes through
// TimedResponder::quiescent(), which holds the same mutex respond() holds.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "resolver/endpoint.h"
#include "resolver/socket_server.h"
#include "scanner/study.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// One closed interval on the benchmark's clock.  `parent` is the id of the
// enclosing span (-1 for a root); ids are assigned when spans are merged.
struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
};

// Shared trace state: the time origin, the current day span (read by the
// shard threads the Study starts inside run_day, so it is written only
// between days), and the coordinating thread's own spans.
struct Trace {
  Clock::time_point origin = Clock::now();
  int day_span = -1;
  // Set by the Study's progress hook when the last scan block of the day
  // completes: endpoint waves after it belong to the name-server phase.
  std::atomic<bool> scan_done{false};
  std::vector<Span> spans;  // coordinating thread only

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin)
        .count();
  }
};

// Per-shard endpoint decorator: times every Endpoint::run call (one wave)
// and splits the busy time into the scan and name-server phases.
class TimedEndpoint final : public httpsrr::resolver::Endpoint {
 public:
  TimedEndpoint(std::unique_ptr<httpsrr::resolver::Endpoint> inner,
                std::size_t shard, Trace& trace)
      : inner_(std::move(inner)), shard_(shard), trace_(trace) {}

  [[nodiscard]] std::vector<httpsrr::resolver::ResolvedAnswer> run(
      std::span<const httpsrr::resolver::QueryEngine::Request> requests)
      override;
  void set_virtual_time(std::uint64_t unix_seconds) override {
    inner_->set_virtual_time(unix_seconds);
  }
  std::uint64_t collect_expired() override { return inner_->collect_expired(); }
  [[nodiscard]] httpsrr::resolver::ResolverStats stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] std::uint64_t fallbacks() const override {
    return inner_->fallbacks();
  }

  // Per-day counters, reset by the coordinating thread between days.
  struct Day {
    double scan_busy_s = 0;
    double ns_busy_s = 0;
    std::uint64_t waves = 0;
    std::uint64_t requests = 0;
  };
  [[nodiscard]] const Day& day() const { return day_; }
  void reset_day() { day_ = Day{}; }
  // Spans recorded since the last take, parented to the day span.
  [[nodiscard]] std::vector<Span> take_spans() { return std::move(spans_); }

 private:
  std::unique_ptr<httpsrr::resolver::Endpoint> inner_;
  std::size_t shard_;
  Trace& trace_;
  Day day_;
  std::vector<Span> spans_;
};

// Observer decorator: one span per on_day call, wall seconds per day.
class TimedObserver final : public httpsrr::scanner::DailyObserver {
 public:
  TimedObserver(httpsrr::scanner::DailyObserver& inner, std::string name,
                Trace& trace)
      : inner_(inner), name_(std::move(name)), trace_(trace) {}

  void on_day(const httpsrr::scanner::DailySnapshot& snapshot,
              const httpsrr::ecosystem::Internet& net) override;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double last_seconds() const { return last_seconds_; }

 private:
  httpsrr::scanner::DailyObserver& inner_;
  std::string name_;
  Trace& trace_;
  double last_seconds_ = 0;
};

// WireResponder decorator for the socket server: per-query respond() time
// and the server thread's CPU time (RUSAGE_THREAD, read on that thread).
// respond() runs under `mutex_`, so quiescent() gives the coordinating
// thread a race-free view of everything the server thread mutates.
class TimedResponder final : public httpsrr::resolver::WireResponder {
 public:
  explicit TimedResponder(httpsrr::resolver::WireResponder& inner)
      : inner_(inner) {}

  [[nodiscard]] std::shared_ptr<const httpsrr::net::WireBytes> respond(
      std::span<const std::uint8_t> query) override;

  struct Day {
    std::vector<double> respond_us;  // one sample per query
    double respond_s = 0;
    // The server thread's cumulative CPU time at the last query of the
    // previous day and of this one.
    double thread_cpu_start_s = 0;
    double thread_cpu_s = 0;
  };
  // Runs fn(day) with the server thread excluded; `day` holds what was
  // recorded since the previous call, which then starts a fresh day.
  template <typename Fn>
  void quiescent(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mutex_);
    fn(static_cast<const Day&>(day_));
    const double cpu = day_.thread_cpu_s;
    day_ = Day{};
    day_.thread_cpu_start_s = cpu;
    day_.thread_cpu_s = cpu;
  }

 private:
  httpsrr::resolver::WireResponder& inner_;
  std::mutex mutex_;
  Day day_;  // guarded by mutex_
};

// Writes spans as a JSON array ({"id","name","start_us","end_us","parent"}).
// False when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
