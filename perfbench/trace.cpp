#include "trace.h"

#include <sys/resource.h>

#include <cstdio>

namespace perfbench {

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double thread_cpu_seconds() {
  struct rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  auto tv = [](const struct timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

}  // namespace

std::vector<httpsrr::resolver::ResolvedAnswer> TimedEndpoint::run(
    std::span<const httpsrr::resolver::QueryEngine::Request> requests) {
  // Read before the wave: a wave that starts after the last scan block
  // finished is a name-server probe wave.
  const bool ns_phase = trace_.scan_done.load(std::memory_order_acquire);
  const auto t0 = Clock::now();
  auto answers = inner_->run(requests);
  const auto t1 = Clock::now();
  const double busy = seconds_between(t0, t1);
  (ns_phase ? day_.ns_busy_s : day_.scan_busy_s) += busy;
  ++day_.waves;
  day_.requests += requests.size();
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - trace_.origin)
        .count();
  };
  std::string name = ns_phase ? "endpoint.ns_wave" : "endpoint.wave";
  name += "/shard" + std::to_string(shard_);
  spans_.push_back(Span{std::move(name), us(t0), us(t1), trace_.day_span});
  return answers;
}

void TimedObserver::on_day(const httpsrr::scanner::DailySnapshot& snapshot,
                           const httpsrr::ecosystem::Internet& net) {
  const double start = trace_.now_us();
  inner_.on_day(snapshot, net);
  const double end = trace_.now_us();
  last_seconds_ = (end - start) / 1e6;
  trace_.spans.push_back(
      Span{"analysis." + name_, start, end, trace_.day_span});
}

std::shared_ptr<const httpsrr::net::WireBytes> TimedResponder::respond(
    std::span<const std::uint8_t> query) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto t0 = Clock::now();
  auto reply = inner_.respond(query);
  const double seconds = seconds_between(t0, Clock::now());
  day_.respond_us.push_back(seconds * 1e6);
  day_.respond_s += seconds;
  day_.thread_cpu_s = thread_cpu_seconds();
  return reply;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %d}%s\n",
                 i, s.name.c_str(), s.start_us, s.end_us, s.parent,
                 i + 1 == spans.size() ? "" : ",");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
