// daily_scan_bench — the cost of one daily scan, end to end and per layer.
//
//   daily_scan_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--spans PATH]
//
// Workloads (NOTES.md says why each was chosen):
//   daily-5k   5k list, prewarmed zones, 1 shard, in process
//   socket-5k  5k list over SocketEndpoint (3 client shards, window 32)
//              against a ScanResponder/SocketServer thread on 127.0.0.1;
//              the server thread has a CPU of its own
//
// Every workload runs consecutive virtual days from EcosystemConfig::start
// with the nine delta-aware observers attached.  Day 1 is the cold day,
// day 2 the warm-up, days 3+ the steady state; --seconds sets how many
// steady days run (Workload::nominal_day_s).  Set-up is timed over
// cold_reps x setups_per_cold fresh worlds and the cold day over cold_reps
// of them.  Every timing is reported as the interquartile mean of its
// samples (see interquartile_mean()), printed beside their 10th, 50th and
// 90th percentiles.
//
// --trace 0 measures the end-to-end metrics on the default code path (a
// Study with no endpoint_factory in process).  --trace 1 runs untraced and
// traced worlds in interleaved pairs, and reports the per-layer metrics
// (medians over every traced steady day) plus the tracing overhead (the
// median of the pairs' throughput ratios, with their range).
//
// Correctness, checked outside the timed region: per-day snapshot digests
// against the pins below, the socket workload's digests against an
// in-process reference run, the cold-day digest across set-up repetitions,
// a traced run's digests against its untraced ones, and
// DeltaAdoptionCounter's numerators against a full recompute each day.
// The last stdout line is one JSON object; any mismatch sets "correct" to
// false and exits 1.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/delta_observers.h"
#include "analysis/iphints_analysis.h"
#include "analysis/ns_analysis.h"
#include "analysis/params_analysis.h"
#include "ecosystem/internet.h"
#include "resolver/endpoint.h"
#include "resolver/socket_server.h"
#include "scanner/digest.h"
#include "scanner/study.h"
#include "trace.h"

namespace {

using namespace httpsrr;
using perfbench::Clock;

struct Workload {
  const char* name;
  std::size_t shards;   // client scan threads
  bool socket;          // scan over SocketEndpoint against an in-process server
  int cold_reps;        // fresh worlds whose cold day is timed
  int setups_per_cold;  // fresh worlds whose set-up is timed, per cold day
  // A steady day's wall seconds on the 4-core host the benchmark was sized
  // on.  --seconds S buys ceil(S / nominal_day_s) steady days: a fixed
  // amount of work per S, so a faster build runs the same days, not more.
  double nominal_day_s;

  [[nodiscard]] std::size_t threads() const {
    return shards + (socket ? 1 : 0);
  }
};

// Both workloads scan the 5k list of the pinned digest (7.5k universe,
// prewarmed zones).
constexpr Workload kWorkloads[] = {
    {"daily-5k", 1, false, 40, 2, 0.5},
    {"socket-5k", 3, true, 20, 2, 0.9},
};
constexpr std::size_t kListSize = 5000;
constexpr std::size_t kUniverseSize = 7500;

constexpr std::size_t kSocketWindow = 32;
constexpr std::size_t kMinSteadyDays = 3;
constexpr std::size_t kFirstSteadyDay = 2;  // 0-based: cold, warm-up, steady

// Per-day snapshot digests (scanner::snapshot_digest over the snapshot and
// the cumulative query count) of the 5k list for seed 2024.  socket-5k must
// reproduce them too: the wire path may not change one answer.
const std::vector<std::string>& pinned_digests(std::uint64_t seed) {
  static const std::vector<std::string> none;
  static const std::vector<std::string> daily_5k = {
      "9629340ba5ae0ecf0a74c75964563f1eb28a148df4be661dea00e04d738e2b83",
      "a2f663f4d993cd8daab3bb20ca024e26b99b20ffa7264861af23bc2b4256d29e",
      "3bc5a7303458d35f66278b4b90e0ff830d80346c436fa5754484494d845b25c3",
      "4f4af0d4e7ffc738026232ee2a405bfbd894e3466f2289ef01d9e32f20550f12",
      "6bc7fb8e3fec113f95b847aaf33913b9b1abad3fd97a6c37079c742f9bf42500",
      "5c143467b712d2955433aa2c6dea372b36253b61fc247e5b3f080f0bf7211d41",
      "f58fa429fe9f497c55292539d68e36db355f354b925b8756a283b24e63f0cd07",
      "e5ac60a2c33cac19f707bedc6612c028fd568e678d8dfbc16bedcb83dd6e8c8a",
      "113b4a53a64f18e14b7abf770fcb764d43eed33c89f0b13c8be63cedb9a87977",
      "9ec606e25a0e50ac6a561af74e022079ee46148f74d350cd7f9d3b4357a10095",
  };
  return seed == 2024 ? daily_5k : none;
}

// ---- Process measurements --------------------------------------------------

double process_cpu_seconds() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const struct timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

// Peak resident set of this process image (VmHWM).  Unlike ru_maxrss it
// does not carry over the parent's high-water mark across fork + exec.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

// socket-5k gives each side CPUs of its own: the server thread runs alone on
// the last CPU this process may use, and the coordinating thread and the
// client shards it starts (a new thread inherits its creator's mask) run on
// the others.  So where the scheduler puts the server thread, the one the
// day waits on, does not vary from run to run.
struct CpuSplit {
  cpu_set_t server;
  cpu_set_t clients;
  int server_cpu = -1;
};

// Split of the CPUs allowed at the first call, which main() makes before it
// pins any thread.
const CpuSplit& cpu_split() {
  static const CpuSplit split = [] {
    CpuSplit s;
    CPU_ZERO(&s.clients);
    sched_getaffinity(0, sizeof(s.clients), &s.clients);
    CPU_ZERO(&s.server);
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (CPU_ISSET(cpu, &s.clients)) {
        s.server_cpu = cpu;
        CPU_SET(cpu, &s.server);
        CPU_CLR(cpu, &s.clients);
        break;
      }
    }
    return s;
  }();
  return split;
}

void pin_calling_thread(const cpu_set_t& cpus) {
  if (pthread_setaffinity_np(pthread_self(), sizeof(cpus), &cpus) != 0) {
    throw std::runtime_error("cannot set the CPU affinity of a thread");
  }
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(p * static_cast<double>(v.size() - 1))];
}

// The timing a run reports: the interquartile mean of its samples, the mean
// of their middle half.  Other tenants of the shared host slow the
// benchmark in phases of seconds to minutes, by up to 1.5x.  The runs of a
// set catch those phases in different shares, and the statistic that moves
// least with the share is the one to report.  Over nine sets of five or ten
// runs, the spread across runs (quartile distance over median) of the cold
// and steady days reached 0.23 for the median, 0.29 for the lower decile
// and 0.21 for the interquartile mean (NOTES.md, "Why the interquartile
// mean").
double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::size_t steady_days(const Workload& w, double seconds) {
  const double days = std::ceil(seconds / w.nominal_day_s);
  return std::max(static_cast<std::size_t>(days), kMinSteadyDays);
}

// ---- The observer set a real study runs -----------------------------------

struct AnalysisSet {
  analysis::DeltaAdoptionCounter adoption;
  analysis::NsCategoryAnalysis ns_category;
  analysis::ProviderAnalysis providers;
  analysis::IntermittentUse intermittent;
  analysis::CfConfigClassifier cf_config;
  analysis::ProviderParamProfile profile;
  analysis::ParamAudit audit;
  analysis::AlpnDistribution alpn;
  analysis::IpHintConsistency hints;

  AnalysisSet(net::SimTime from, net::SimTime to)
      : ns_category(from, to),
        providers(from, to),
        intermittent(from, to),
        profile("godaddy") {}

  [[nodiscard]] std::vector<std::pair<std::string, scanner::DailyObserver*>>
  named() {
    return {{"adoption", &adoption},   {"ns_category", &ns_category},
            {"providers", &providers}, {"intermittent", &intermittent},
            {"cf_config", &cf_config}, {"profile", &profile},
            {"audit", &audit},         {"alpn", &alpn},
            {"hints", &hints}};
  }

  [[nodiscard]] std::uint64_t rows_touched() const {
    return adoption.rows_touched() + ns_category.rows_touched() +
           providers.rows_touched() + intermittent.rows_touched() +
           cf_config.rows_touched() + profile.rows_touched() +
           audit.rows_touched() + alpn.rows_touched() + hints.rows_touched();
  }
};

ecosystem::EcosystemConfig make_config(std::uint64_t seed) {
  ecosystem::EcosystemConfig config;
  config.list_size = kListSize;
  config.universe_size = kUniverseSize;
  config.seed = seed;
  return config;
}

// ---- One study with everything it needs -----------------------------------

// Counters read at day boundaries; per-day metrics are their deltas.
struct Counters {
  resolver::ResolverStats client;     // Study::resolver_stats()
  resolver::ResolverStats recursive;  // the resolvers doing the recursion
  resolver::HotPathStats hot;
  scanner::RrsetInterner::Stats interner;
  scanner::Study::GcStats gc;
  std::uint64_t total_queries = 0;
  std::uint64_t rows_touched = 0;
  std::uint64_t fallbacks = 0;
  net::SocketStats socket;
  resolver::SocketServerStats server;
};

class World {
 public:
  // Builds the ecosystem, the Study and (for socket workloads) the server;
  // `trace` non-null installs the decorators.
  World(const Workload& w, std::uint64_t seed, perfbench::Trace* trace)
      : workload_(w), trace_(trace) {
    const auto config = make_config(seed);
    scanner::StudyOptions options;
    options.shards = w.shards;
    if (w.socket) start_server(config);
    net_ = std::make_unique<ecosystem::Internet>(config);
    analyses_ =
        std::make_unique<AnalysisSet>(net_->config().start, net_->config().end);
    if (w.socket || trace != nullptr) {
      options.endpoint_factory =
          [this](std::size_t shard, const resolver::ResolverOptions& primary,
                 const resolver::ResolverOptions& backup) {
            return make_endpoint(shard, primary, backup);
          };
    }
    if (trace != nullptr) {
      options.progress = [trace](std::size_t done, std::size_t total) {
        if (done == total) {
          trace->scan_done.store(true, std::memory_order_release);
        }
      };
    }
    study_ = std::make_unique<scanner::Study>(*net_, std::move(options));
    for (auto& [name, observer] : analyses_->named()) {
      if (trace != nullptr) {
        observers_.push_back(std::make_unique<perfbench::TimedObserver>(
            *observer, name, *trace));
        study_->add_observer(observers_.back().get());
      } else {
        study_->add_observer(observer);
      }
    }
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] scanner::Study& study() { return *study_; }
  [[nodiscard]] const ecosystem::Internet& net() const { return *net_; }
  [[nodiscard]] const AnalysisSet& analyses() const { return *analyses_; }
  [[nodiscard]] std::vector<perfbench::TimedEndpoint*>& timed_endpoints() {
    return timed_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<perfbench::TimedObserver>>&
  timed_observers() const {
    return observers_;
  }

  // Reads every counter.  Server-side state is read only when the traced
  // responder can exclude the server thread; untraced socket runs read the
  // client side and the (mutex-guarded) SocketServer stats.
  // `serve_day` receives the responder's per-day samples when traced.
  Counters read_counters(perfbench::TimedResponder::Day* serve_day) {
    Counters c;
    c.client = study_->resolver_stats();
    c.interner = study_->interner_stats();
    c.gc = study_->gc_stats();
    c.total_queries = study_->total_queries();
    c.rows_touched = analyses_->rows_touched();
    for (auto* ep : sockets_) {
      const net::SocketStats& s = ep->socket_stats();
      c.socket.udp_queries += s.udp_queries;
      c.socket.tcp_queries += s.tcp_queries;
      c.socket.retransmits += s.retransmits;
      c.socket.timeouts += s.timeouts;
      c.socket.tcp_fallbacks += s.tcp_fallbacks;
      c.socket.stray_replies += s.stray_replies;
      c.socket.mismatched_replies += s.mismatched_replies;
    }
    for (auto* ep : timed_) c.fallbacks += ep->fallbacks();
    if (!workload_.socket) {
      c.recursive = c.client;
      c.hot = net_->infra().hot_path_stats();
      return c;
    }
    c.server = server_->stats();
    if (timed_responder_) {
      timed_responder_->quiescent(
          [&](const perfbench::TimedResponder::Day& day) {
            for (auto* resolver : server_pool_) {
              c.recursive += resolver->stats();
            }
            c.hot = server_net_->infra().hot_path_stats();
            // The serve process runs the resolver-cache sweeps for socket
            // endpoints (Endpoint::collect_expired returns 0 there).
            c.gc.resolver_swept += responder_->swept_entries();
            if (serve_day != nullptr) *serve_day = day;
          });
    }
    return c;
  }

 private:
  void start_server(const ecosystem::EcosystemConfig& config) {
    server_net_ = std::make_unique<ecosystem::Internet>(config);
    // The exact resolver pairs a K-shard in-process Study derives, built
    // lazily on the server thread as client shards first address them.
    auto factory = [this](std::uint16_t shard, bool backup) {
      const auto pair = scanner::Study::shard_pair_options(
          resolver::ResolverOptions{}, shard);
      auto resolver =
          server_net_->make_resolver(backup ? pair.backup : pair.primary);
      server_pool_.push_back(resolver.get());
      return resolver;
    };
    auto advance = [this](std::uint64_t unix_seconds) {
      server_net_->advance_to(
          net::SimTime{static_cast<std::int64_t>(unix_seconds)});
    };
    responder_ = std::make_unique<resolver::ScanResponder>(std::move(factory),
                                                           std::move(advance));
    resolver::WireResponder* front = responder_.get();
    if (trace_ != nullptr) {
      timed_responder_ =
          std::make_unique<perfbench::TimedResponder>(*responder_);
      front = timed_responder_.get();
    }
    server_ = std::make_unique<resolver::SocketServer>(*front);
    if (!server_->start()) throw std::runtime_error("cannot bind 127.0.0.1");
    pin_calling_thread(cpu_split().server);
    server_->serve_in_background();
    pin_calling_thread(cpu_split().clients);
  }

  std::unique_ptr<resolver::Endpoint> make_endpoint(
      std::size_t shard, const resolver::ResolverOptions& primary,
      const resolver::ResolverOptions& backup) {
    std::unique_ptr<resolver::Endpoint> endpoint;
    if (workload_.socket) {
      resolver::SocketEndpointOptions options;
      options.server = server_->endpoint();
      options.shard = static_cast<std::uint16_t>(shard);
      options.max_in_flight = kSocketWindow;
      auto socket = std::make_unique<resolver::SocketEndpoint>(options);
      if (!socket->ok()) throw std::runtime_error("cannot open client socket");
      sockets_.push_back(socket.get());
      endpoint = std::move(socket);
    } else {
      // The same endpoint the default path builds.
      endpoint = std::make_unique<resolver::EngineEndpoint>(
          net_->make_resolver(primary), net_->make_resolver(backup));
    }
    if (trace_ != nullptr) {
      auto timed = std::make_unique<perfbench::TimedEndpoint>(
          std::move(endpoint), shard, *trace_);
      timed_.push_back(timed.get());
      endpoint = std::move(timed);
    }
    return endpoint;
  }

  const Workload& workload_;
  perfbench::Trace* trace_;
  // Server side first: it must outlive the client sockets, and the server
  // thread (joined by ~SocketServer) must stop before its responder and
  // ecosystem go away.
  std::unique_ptr<ecosystem::Internet> server_net_;
  std::vector<resolver::RecursiveResolver*> server_pool_;  // server thread
  std::unique_ptr<resolver::ScanResponder> responder_;
  std::unique_ptr<perfbench::TimedResponder> timed_responder_;
  std::unique_ptr<resolver::SocketServer> server_;
  std::unique_ptr<ecosystem::Internet> net_;
  std::unique_ptr<AnalysisSet> analyses_;
  std::vector<std::unique_ptr<perfbench::TimedObserver>> observers_;
  std::vector<perfbench::TimedEndpoint*> timed_;
  std::vector<resolver::SocketEndpoint*> sockets_;
  std::unique_ptr<scanner::Study> study_;
};

// ---- Running days ---------------------------------------------------------

struct Check {
  bool ok = true;
  void fail(const std::string& what) {
    ok = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct DayResult {
  double wall_s = 0;
  double cpu_s = 0;
  std::size_t listed = 0;
  std::string digest;
  // Traced runs only: per-layer metrics and the server's respond() times.
  std::vector<Metric> layer;
  std::vector<double> respond_us;
};

// Per-layer metrics of one day from the counters around it.
std::vector<Metric> layer_metrics(
    World& world, const Workload& w, const Counters& a, const Counters& b,
    const DayResult& day, const scanner::DailySnapshot& snap,
    const perfbench::TimedResponder::Day& serve) {
  std::vector<Metric> m;
  const auto add = [&m](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), value, unit});
  };
  const auto& t = world.study().day_timing();
  const double phases = t.advance + t.sweep + t.compact + t.scan + t.ns +
                        t.churn + t.observers;
  add("study.advance_s", t.advance, "s");
  add("study.sweep_s", t.sweep, "s");
  add("study.compact_s", t.compact, "s");
  add("study.scan_s", t.scan, "s");
  add("study.ns_s", t.ns, "s");
  add("study.churn_s", t.churn, "s");
  add("study.observers_s", t.observers, "s");
  add("study.unattributed_s", day.wall_s - phases, "s");
  add("study.phase_coverage", ratio(phases, day.wall_s), "ratio");

  double busy = 0, ns_busy = 0, max_busy = 0;
  std::uint64_t waves = 0, requests = 0;
  for (auto* ep : world.timed_endpoints()) {
    const auto& d = ep->day();
    busy += d.scan_busy_s;
    ns_busy += d.ns_busy_s;
    max_busy = std::max(max_busy, d.scan_busy_s);
    waves += d.waves;
    requests += d.requests;
  }
  const double k = static_cast<double>(w.shards);
  add("endpoint.busy_s", busy, "s");
  add("endpoint.ns_busy_s", ns_busy, "s");
  add("endpoint.waves", static_cast<double>(waves), "count");
  add("endpoint.requests", static_cast<double>(requests), "count");
  add("endpoint.us_per_request", ratio((busy + ns_busy) * 1e6, requests),
      "us");
  add("endpoint.fallbacks", static_cast<double>(b.fallbacks - a.fallbacks),
      "count");
  add("endpoint.share_of_scan", ratio(busy, k * t.scan), "ratio");
  add("endpoint.shard_skew", ratio(max_busy, busy / k), "ratio");
  add("scanner.self_s", k * t.scan - busy, "s");

  const auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  const auto& ra = a.recursive;
  const auto& rb = b.recursive;
  const double cache_hits = d(ra.cache_hits, rb.cache_hits);
  const double upstream = d(ra.upstream_queries, rb.upstream_queries);
  const double cache_misses = d(ra.cache_misses, rb.cache_misses);
  add("resolver.cache_hit_ratio", ratio(cache_hits, cache_hits + cache_misses),
      "ratio");
  add("resolver.upstream_per_query", ratio(upstream, d(ra.queries, rb.queries)),
      "ratio");
  add("resolver.servfails", d(ra.servfails, rb.servfails), "count");
  add("resolver.timeouts", d(ra.timeouts, rb.timeouts), "count");
  add("resolver.tcp_fallbacks", d(ra.tcp_fallbacks, rb.tcp_fallbacks),
      "count");
  add("resolver.validations", d(ra.validations, rb.validations), "count");
  add("resolver.coalesced", d(ra.coalesced_queries, rb.coalesced_queries),
      "count");
  add("scan.queries_per_domain",
      ratio(d(a.total_queries, b.total_queries),
            static_cast<double>(day.listed)),
      "ratio");

  const double rh = d(a.hot.response_hits, b.hot.response_hits);
  const double rm = d(a.hot.response_misses, b.hot.response_misses);
  const double sh = d(a.hot.signature_hits, b.hot.signature_hits);
  const double sm = d(a.hot.signature_misses, b.hot.signature_misses);
  add("auth.response_hit_ratio", ratio(rh, rh + rm), "ratio");
  add("auth.responses_rendered", rm, "count");
  add("auth.signature_hit_ratio", ratio(sh, sh + sm), "ratio");
  add("auth.signatures_computed", sm, "count");
  add("auth.bytes_encoded_per_query",
      ratio(d(a.hot.bytes_encoded, b.hot.bytes_encoded), upstream), "B");

  const auto hits = [](const scanner::RrsetInterner::Stats& s) {
    return s.pointer_hits + s.content_hits + s.empty_hits;
  };
  const auto& ia = a.interner;
  const auto& ib = b.interner;
  const double ih = d(hits(ia), hits(ib));
  add("interner.hit_ratio", ratio(ih, ih + d(ia.misses, ib.misses)), "ratio");
  add("interner.pointer_hits", d(ia.pointer_hits, ib.pointer_hits), "count");
  add("interner.entries", static_cast<double>(b.gc.interner_entries), "count");
  add("interner.live", static_cast<double>(b.gc.live_refs), "count");
  add("gc.compaction_freed", d(a.gc.compaction_freed, b.gc.compaction_freed),
      "count");
  add("gc.resolver_swept", d(a.gc.resolver_swept, b.gc.resolver_swept),
      "count");
  add("gc.zone_swept", d(a.gc.zone_swept, b.gc.zone_swept), "count");
  add("snapshot.bytes_per_domain", snap.memory_stats().bytes_per_domain, "B");

  for (const auto& observer : world.timed_observers()) {
    add("analysis." + observer->name() + "_s", observer->last_seconds(), "s");
  }
  add("analysis.rows_touched", d(a.rows_touched, b.rows_touched), "count");

  const auto& sa = a.socket;
  const auto& sb = b.socket;
  add("socket.udp_queries", d(sa.udp_queries, sb.udp_queries), "count");
  add("socket.retransmits", d(sa.retransmits, sb.retransmits), "count");
  add("socket.timeouts", d(sa.timeouts, sb.timeouts), "count");
  add("socket.stray_replies", d(sa.stray_replies, sb.stray_replies), "count");
  const auto& va = a.server;
  const auto& vb = b.server;
  add("server.udp_queries", d(va.udp_queries, vb.udp_queries), "count");
  add("server.truncated", d(va.truncated_replies, vb.truncated_replies),
      "count");
  add("server.dropped", d(va.dropped_queries, vb.dropped_queries), "count");
  add("serve.respond_share",
      ratio(serve.respond_s, serve.thread_cpu_s - serve.thread_cpu_start_s),
      "ratio");
  return m;
}

// Whole-run failure accounting, summed over every world a run builds.
struct Tally {
  std::uint64_t attempted = 0;  // queries the scanner asked its endpoints
  std::uint64_t failed = 0;     // timeouts + server drops
  std::uint64_t servfails = 0;  // modelled answers: dataset, not failures

  void add(World& world) {
    const Counters c = world.read_counters(nullptr);
    attempted += c.client.queries;
    failed += c.client.timeouts + c.server.dropped_queries;
    servfails += c.client.servfails;
  }
  [[nodiscard]] double failed_ratio() const {
    return ratio(static_cast<double>(failed), static_cast<double>(attempted));
  }
};

// Runs virtual day `d` (0-based from EcosystemConfig::start).  The wall and
// CPU clocks cover Study::run_day only; the digest, the delta check and the
// traced counter reads run outside them.
DayResult run_one_day(World& world, const Workload& w, std::size_t d,
                      perfbench::Trace* trace, Check& check) {
  scanner::Study& study = world.study();
  const net::SimTime day = world.net().config().start + net::Duration::days(d);
  Counters before;
  std::size_t day_span = 0;
  if (trace != nullptr) {
    before = world.read_counters(nullptr);
    for (auto* ep : world.timed_endpoints()) ep->reset_day();
    trace->scan_done.store(false, std::memory_order_release);
    day_span = trace->spans.size();
    trace->day_span = static_cast<int>(day_span);
    trace->spans.push_back(
        {"day" + std::to_string(d + 1), trace->now_us(), 0, -1});
  }

  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  const scanner::DailySnapshot snapshot = study.run_day(day);
  DayResult r;
  r.wall_s = seconds_since(t0);
  r.cpu_s = process_cpu_seconds() - cpu0;
  r.listed = snapshot.size();

  r.digest = scanner::snapshot_digest(snapshot, study.total_queries());
  if (!(world.analyses().adoption.counts() ==
        analysis::DeltaAdoptionCounter::recompute(snapshot))) {
    check.fail(std::string(w.name) + " day " + std::to_string(d + 1) +
               ": delta adoption numerators differ from a full recompute");
  }

  if (trace != nullptr) {
    trace->spans[day_span].end_us = trace->now_us();
    for (auto* ep : world.timed_endpoints()) {
      for (auto& span : ep->take_spans()) {
        trace->spans.push_back(std::move(span));
      }
    }
    perfbench::TimedResponder::Day serve;
    const Counters after = world.read_counters(&serve);
    r.layer = layer_metrics(world, w, before, after, r, snapshot, serve);
    r.respond_us = std::move(serve.respond_us);
  }
  return r;
}

// One world's days: its set-up time and every day it ran.
struct Series {
  double setup_s = 0;
  std::vector<DayResult> days;

  [[nodiscard]] std::vector<const DayResult*> steady() const {
    std::vector<const DayResult*> out;
    for (std::size_t d = kFirstSteadyDay; d < days.size(); ++d) {
      out.push_back(&days[d]);
    }
    return out;
  }
};

// Listed domains over the interquartile mean of the wall time of `days`.
double domains_per_s(const std::vector<const DayResult*>& days) {
  std::vector<double> wall;
  for (const auto* day : days) wall.push_back(day->wall_s);
  return ratio(static_cast<double>(days.front()->listed), interquartile_mean(wall));
}

double cpu_us_per_domain(const std::vector<const DayResult*>& days) {
  std::vector<double> v;
  for (const auto* day : days) {
    v.push_back(ratio(day->cpu_s * 1e6, static_cast<double>(day->listed)));
  }
  return interquartile_mean(v);
}

// Seconds to build a fresh world, which is then torn down untimed.
double time_setup(const Workload& w, std::uint64_t seed) {
  const auto t0 = Clock::now();
  World world(w, seed, nullptr);
  return seconds_since(t0);
}

// Builds a fresh world and runs its cold day, then the warm-up day and
// `steady_days` steady days.
Series run_world(const Workload& w, std::uint64_t seed, perfbench::Trace* trace,
                 std::size_t steady_days, Check& check, Tally& tally) {
  Series series;
  const auto t0 = Clock::now();
  World world(w, seed, trace);
  series.setup_s = seconds_since(t0);

  const auto& pins = pinned_digests(seed);
  const auto run = [&](std::size_t d) {
    series.days.push_back(run_one_day(world, w, d, trace, check));
    const DayResult& day = series.days.back();
    std::printf("  day %zu: %.4f s wall, %.4f s cpu, digest %s\n", d + 1,
                day.wall_s, day.cpu_s, day.digest.c_str());
    if (d < pins.size() && day.digest != pins[d]) {
      check.fail(std::string(w.name) + " day " + std::to_string(d + 1) +
                 ": digest " + day.digest + " != pinned " + pins[d]);
    }
  };
  run(0);
  if (steady_days > 0) {
    for (std::size_t d = 1; d < kFirstSteadyDay + steady_days; ++d) run(d);
  }
  tally.add(world);
  return series;
}

// The socket path may not change one answer: every day's digest must equal
// an in-process (default endpoint) study's over the same days.
void check_against_in_process(const Workload& w, std::uint64_t seed,
                              const Series& socket_series, Check& check) {
  Workload reference = w;
  reference.socket = false;
  reference.shards = 1;
  Tally ignored;
  World world(reference, seed, nullptr);
  for (std::size_t d = 0; d < socket_series.days.size(); ++d) {
    const DayResult day = run_one_day(world, reference, d, nullptr, check);
    if (day.digest != socket_series.days[d].digest) {
      check.fail(std::string(w.name) + " day " + std::to_string(d + 1) +
                 ": socket digest " + socket_series.days[d].digest +
                 " != in-process " + day.digest);
    }
  }
}

// ---- Output ---------------------------------------------------------------


std::string result_json(bool correct, const Tally& tally,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " +
         std::to_string(std::max<std::uint64_t>(tally.attempted, 1));
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 2024;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        args.workload = value;
      } else if (arg == "--seed") {
        args.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        args.seconds = std::stod(value);
      } else if (arg == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (arg == "--spans") {
        args.spans_path = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0;
}

// --trace 0: set-up and the cold day over fresh worlds, and the steady days
// over kSteadyWorlds of them, spread evenly over the run and ending with the
// last; every end-to-end metric, each timing as the interquartile mean of
// its samples.  Set-up is sampled more often than the cold day: it is short, so
// a single sample is easily moved by the host.  The steady days are pooled
// from several worlds because one world's steady days can all run slow or
// all run fast: in one daily-5k process, the medians of 6 steady days in
// each of 8 worlds ranged from 0.42 to 0.57 s.
std::vector<Metric> measure_end_to_end(const Workload& w, const Args& args,
                                       Check& check, Tally& tally) {
  constexpr int kSteadyWorlds = 4;
  const std::size_t days_per_world =
      (steady_days(w, args.seconds) + kSteadyWorlds - 1) / kSteadyWorlds;
  std::vector<double> setup, cold;
  std::vector<Series> steady_worlds;
  std::string cold_digest;
  for (int rep = 0; rep < w.cold_reps; ++rep) {
    for (int i = 1; i < w.setups_per_cold; ++i) {
      setup.push_back(time_setup(w, args.seed));
    }
    // True for exactly kSteadyWorlds reps, the last among them.
    const bool steady_world = (rep + 1) * kSteadyWorlds / w.cold_reps !=
                              rep * kSteadyWorlds / w.cold_reps;
    Series s = run_world(w, args.seed, nullptr,
                         steady_world ? days_per_world : 0, check, tally);
    setup.push_back(s.setup_s);
    cold.push_back(s.days.front().wall_s);
    if (rep == 0) cold_digest = s.days.front().digest;
    if (s.days.front().digest != cold_digest) {
      check.fail("cold-day digest changed between set-up repetitions");
    }
    if (steady_world) steady_worlds.push_back(std::move(s));
  }
  const double rss = peak_rss_mib();
  if (w.socket) {
    check_against_in_process(w, args.seed, steady_worlds.back(), check);
  }
  std::vector<const DayResult*> steady;
  for (const auto& series : steady_worlds) {
    for (const auto* day : series.steady()) steady.push_back(day);
  }

  std::printf("%zu set-ups, %zu cold days, %zu steady days over %zu worlds, "
              "day-1 digest %s\n",
              setup.size(), cold.size(), steady.size(), steady_worlds.size(),
              cold_digest.c_str());
  std::vector<double> steady_wall, steady_cpu;
  for (const auto* day : steady) {
    steady_wall.push_back(day->wall_s);
    steady_cpu.push_back(day->cpu_s);
  }
  for (const auto& [name, v] :
       {std::pair<const char*, const std::vector<double>&>{"set-up", setup},
        {"cold day", cold},
        {"steady day wall", steady_wall},
        {"steady day cpu", steady_cpu}}) {
    std::printf("%s: interquartile mean %.4f s (reported); p10 %.4f s, "
                "median %.4f s, p90 %.4f s over %zu samples\n",
                name, interquartile_mean(v), percentile(v, 0.1), median(v),
                percentile(v, 0.9), v.size());
  }
  std::printf("failures: %llu of %llu queries (failed_query_ratio %.6g); "
              "modelled SERVFAIL answers %llu are dataset content, not "
              "failures\n",
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted),
              tally.failed_ratio(),
              static_cast<unsigned long long>(tally.servfails));
  return {
      {"setup_s", interquartile_mean(setup), "s"},
      {"cold_day_s", interquartile_mean(cold), "s"},
      {"domains_per_s", domains_per_s(steady), "1/s"},
      {"cpu_us_per_domain", cpu_us_per_domain(steady), "us"},
      {"peak_rss_mib", rss, "MiB"},
      {"answered_query_ratio", 1.0 - tally.failed_ratio(), "ratio"},
  };
}

// --trace 1: untraced and traced worlds over the same days, in interleaved
// pairs; every per-layer metric, the accounting line and the tracing
// overhead.  A pair's ratio is as noisy as domains_per_s itself, so the
// overhead is the median over the pairs, reported with their range.
std::vector<Metric> measure_layers(const Workload& w, const Args& args,
                                   Check& check, Tally& tally) {
  constexpr int kPairs = 4;
  const std::size_t days = steady_days(w, args.seconds / (2.0 * kPairs));
  std::vector<double> overhead, plain_dps, traced_dps;
  std::vector<Series> traced;
  Series plain;
  perfbench::Trace trace;  // the spans file holds the last traced world
  for (int pair = 0; pair < kPairs; ++pair) {
    // Alternate the order, so a drift in host speed falls on both sides.
    for (const bool traced_turn : {pair % 2 == 1, pair % 2 == 0}) {
      if (traced_turn) {
        trace.spans.clear();
        traced.push_back(run_world(w, args.seed, &trace, days, check, tally));
      } else {
        plain = run_world(w, args.seed, nullptr, days, check, tally);
      }
    }
    // The decorators may not change one answer.
    for (std::size_t d = 0; d < plain.days.size(); ++d) {
      if (traced.back().days[d].digest != plain.days[d].digest) {
        check.fail(std::string(w.name) + " day " + std::to_string(d + 1) +
                   ": traced digest differs from the untraced one");
      }
    }
    plain_dps.push_back(domains_per_s(plain.steady()));
    traced_dps.push_back(domains_per_s(traced.back().steady()));
    overhead.push_back(ratio(plain_dps.back(), traced_dps.back()));
  }
  if (w.socket) check_against_in_process(w, args.seed, plain, check);

  // Every traced day reports the same metrics in the same order.
  std::vector<const DayResult*> steady;
  for (const auto& series : traced) {
    for (const auto* day : series.steady()) steady.push_back(day);
  }
  std::vector<Metric> metrics = steady.front()->layer;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::vector<double> v;
    for (const auto* day : steady) v.push_back(day->layer[i].value);
    metrics[i].value = median(v);
  }
  std::vector<double> respond_us;
  for (const auto* day : steady) {
    respond_us.insert(respond_us.end(), day->respond_us.begin(),
                      day->respond_us.end());
  }
  const double overhead_median = median(overhead);
  const auto [low, high] =
      std::minmax_element(overhead.begin(), overhead.end());
  metrics.push_back(
      {"serve.respond_us_p50", percentile(respond_us, 0.50), "us"});
  metrics.push_back(
      {"serve.respond_us_p99", percentile(respond_us, 0.99), "us"});
  metrics.push_back({"failed_query_ratio", tally.failed_ratio(), "ratio"});
  metrics.push_back({"trace.domains_per_s", median(traced_dps), "1/s"});
  metrics.push_back({"trace.overhead_ratio", overhead_median, "ratio"});
  metrics.push_back({"trace.overhead_range", *high - *low, "ratio"});

  std::map<std::string, double> by_name;
  for (const auto& m : metrics) by_name[m.name] = m.value;
  std::printf("accounting: DayTiming phases cover %.4f of run_day wall time "
              "(study.unattributed_s %.6f s); endpoint.share_of_scan %.4f of "
              "K x scan_s (scanner.self_s %.6f s: classify, intern, merge, "
              "shard idle)\n",
              by_name["study.phase_coverage"], by_name["study.unattributed_s"],
              by_name["endpoint.share_of_scan"], by_name["scanner.self_s"]);
  std::printf("tracing overhead: untraced over traced domains_per_s, median "
              "%.4f of %d interleaved pairs (range %.4f-%.4f; untraced %.1f, "
              "traced %.1f domains/s)%s\n",
              overhead_median, kPairs, *low, *high, median(plain_dps),
              median(traced_dps),
              *low <= 1.0 && 1.0 <= *high
                  ? "; unresolved: the pairs do not agree on its sign, so it "
                    "is below host noise"
                  : "");
  std::printf("failures: failed_query_ratio %.6g; modelled SERVFAIL answers "
              "%llu (resolver.servfails median/day %.0f) are not failures\n",
              tally.failed_ratio(),
              static_cast<unsigned long long>(tally.servfails),
              by_name["resolver.servfails"]);
  if (!args.spans_path.empty()) {
    if (!perfbench::write_spans(args.spans_path, trace.spans)) {
      throw std::runtime_error("cannot write " + args.spans_path);
    }
    std::printf("%zu spans written to %s\n", trace.spans.size(),
                args.spans_path.c_str());
  }
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: daily_scan_bench --workload daily-5k|socket-5k "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "[--spans PATH]\n");
    return 2;
  }
  const Workload* found = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;

  // Load shape: a closed loop from this one process, never more threads
  // than the CPUs it may run on.
  const std::size_t cpus = online_cpus();
  std::printf("workload %s, seed %llu, %zu-domain list, nproc %zu, "
              "threads %zu",
              w.name, static_cast<unsigned long long>(args.seed), kListSize,
              cpus, w.threads());
  if (w.socket) {
    std::printf(" (%zu client shards x window %zu + 1 server on CPU %d of its "
                "own; loopback 127.0.0.1, not a real link)",
                w.shards, kSocketWindow, cpu_split().server_cpu);
  }
  std::printf("\n");
  if (w.threads() > cpus) {
    std::fprintf(stderr, "%s needs %zu threads but only %zu CPUs are online\n",
                 w.name, w.threads(), cpus);
    return 2;
  }

  Check check;
  Tally tally;
  std::vector<Metric> metrics;
  try {
    if (w.socket) pin_calling_thread(cpu_split().clients);
    metrics = args.trace ? measure_layers(w, args, check, tally)
                         : measure_end_to_end(w, args, check, tally);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "daily_scan_bench: %s\n", e.what());
    return 2;
  }

  print_metrics(metrics);
  std::printf("%s\n", result_json(check.ok, tally, metrics).c_str());
  return check.ok ? 0 : 1;
}
