// perfbench: the repository benchmark's main program.
//
//   perfbench --workload rack_fio|fleet_open|ec_repair --seed N
//             --seconds S --trace 0|1 [--smoke] [--plant-lost-io]
//
// Repeats the workload's simulation, each time from a fresh cluster, until
// `--seconds` of host time are spent. Repetition i simulates sub-seed
// `seed * K + i % K`, where K is the workload's number of sim seeds: the
// sim-time metrics pool the first K repetitions, and repetition i must
// reproduce the sim_digest of repetition i - K exactly. Host-time metrics
// are medians over the repetitions after the first, which is a warm-up (it
// pays the process's first page faults); peak RSS is read right after it.
//
// --trace 0 reports the end-to-end metrics, measured dark. --trace 1 splits
// the time between dark repetitions and repetitions with obs::Obs attached
// plus host spans around the benchmark's calls, reports the per-layer
// metrics, and requires each traced sim_digest to equal the dark one of the
// same sub-seed.
//
// Correctness gates: after drain every I/O issued has completed or failed;
// rack_fio has no errors; ec_repair's foreground reads return the seeded
// bytes and its rebuild finishes. A failed gate prints `correct: false` and
// exits 1. The last stdout line is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "kernels/kernels.h"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/selftest.py checks it).
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"ios_per_host_s", "1/s"},
    {"peak_rss_mb", "MiB"},    {"sim_iops", "1/s"},
    {"sim_lat_p50_us", "us"},  {"sim_lat_p99_us", "us"},
};

const MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_io", "count"},
    {"sim.events_per_host_s", "1/s"},
    {"sim.run_s", "s"},
    {"sim.epochs", "count"},
    {"sim.events_per_epoch", "count"},
    {"net.cluster_build_s", "s"},
    {"net.routes_s", "s"},
    {"net.switch_forwarded", "count"},
    {"net.hops_per_io", "count"},
    {"net.drops", "count"},
    {"net.drops_queue_full", "count"},
    {"net.queue_bytes_peak", "bytes"},
    {"net.ecmp_rehashes", "count"},
    {"stack.submit_us", "us"},
    {"solar.data_pkts_per_io", "count"},
    {"solar.retransmits", "count"},
    {"solar.pkt_timeouts", "count"},
    {"solar.path_redraws", "count"},
    {"tcp.retransmits", "count"},
    {"tcp.timeouts", "count"},
    {"sa.create_vd_us", "us"},
    {"sa.rpcs_per_io", "count"},
    {"sa.split_ios", "count"},
    {"ebs.lat_sa_p50_us", "us"},
    {"dpu.cpu_util", "ratio"},
    {"dpu.pcie_bytes_per_io", "bytes"},
    {"dpu.pcie_backlog_us", "us"},
    {"ebs.lat_fn_p50_us", "us"},
    {"ssd.ops", "count"},
    {"ssd.backlog_us", "us"},
    {"storage.cpu_util", "ratio"},
    {"ebs.lat_bn_p50_us", "us"},
    {"ebs.lat_ssd_p50_us", "us"},
    {"ec.sub_ios_per_io", "count"},
    {"ec.parity_updates", "count"},
    {"ec.degraded_reads", "count"},
    {"ec.reconstructs", "count"},
    {"ec.cells_rebuilt", "count"},
    {"ec.segments_rebuilt", "count"},
    {"ec.repair_failures", "count"},
    {"ec.rebuild_yield", "ratio"},
    {"ec.rebuild_yield_base", "count"},
    {"kernels.bytes", "bytes"},
    {"kernels.mul_acc_gbps", "GB/s"},
    {"kernels.crc_gbps", "GB/s"},
    {"kernels.tier", "count"},
    {"qos.admitted", "count"},
    {"qos.rejected", "count"},
    {"qos.reject_ratio", "ratio"},
    {"qos.bg_share", "ratio"},
    {"workload.issued", "count"},
    {"workload.completed", "count"},
    {"workload.failed", "count"},
    {"obs.spans", "count"},
    {"obs.overhead_ratio", "ratio"},
};

struct Workload {
  const char* name;
  RepResult (*fn)(const RepConfig&);
  /// Sub-seeds the sim-time metrics pool over. One window of rack_fio or
  /// ec_repair gives tail latencies that move between seeds by more than a
  /// bound should allow (ec_repair's tail comes from one rebuild episode),
  /// so they pool independent windows; fleet_open's 40 K samples suffice.
  std::size_t sim_seeds;
};

const Workload kWorkloads[] = {
    {"rack_fio", run_rack_fio, 4},
    {"fleet_open", run_fleet_open, 1},
    {"ec_repair", run_ec_repair, 12},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool smoke = false;
  bool plant_lost_io = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload rack_fio|fleet_open|ec_repair --seed N "
               "--seconds S --trace 0|1 [--smoke] [--plant-lost-io]\n",
               argv0);
  return 2;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.trace = std::atoi(argv[++i]);
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--plant-lost-io") {
      o.plant_lost_io = true;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0.0 &&
         (o.trace == 0 || o.trace == 1);
}

std::string strf(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ios_per_host_s(const RepResult& r) {
  return static_cast<double>(r.io.ok + r.io.failed) / r.run_s;
}

std::uint64_t lost(const RepResult& r) {
  return r.io.issued - r.io.ok - r.io.failed;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Repeats the workload until `budget_s` of host time is spent: at least
/// `min_reps` times, and a further repetition only if one more of average
/// length still fits the budget. Repetition i runs sub-seed
/// `seed * sim_seeds + i % sim_seeds`.
std::vector<RepResult> run_reps(const Workload& w, RepConfig cfg,
                                std::uint64_t seed, double budget_s,
                                std::size_t min_reps, double* rss_after_first) {
  constexpr std::size_t kMaxReps = 500;
  std::vector<RepResult> reps;
  const auto t0 = HostSpans::Clock::now();
  for (;;) {
    const double elapsed = seconds_since(t0);
    if (reps.size() >= min_reps) {
      const double mean = elapsed / static_cast<double>(reps.size());
      if (elapsed + mean > budget_s || reps.size() >= kMaxReps) break;
    }
    cfg.seed = seed * w.sim_seeds + reps.size() % w.sim_seeds;
    cfg.time_routes = cfg.traced && reps.empty();
    reps.push_back(w.fn(cfg));
    if (reps.size() == 1 && rss_after_first != nullptr) {
      *rss_after_first = peak_rss_mib();
    }
  }
  return reps;
}

/// Host throughput of one kernel on 4 KiB cells, in GB/s.
double kernel_gbps(bool crc) {
  const repro::kernels::Kernels& k = repro::kernels::active();
  std::vector<std::uint8_t> in(4096), out(4096);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  std::uint32_t state = 0;
  std::uint64_t bytes = 0;
  const auto t0 = HostSpans::Clock::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 64; ++i) {
      if (crc) {
        state = k.crc32_update(state, in.data(), in.size());
      } else {
        k.gf_mul_acc(0x53, in.data(), out.data(), in.size());
      }
    }
    bytes += 64 * in.size();
    elapsed = seconds_since(t0);
  } while (elapsed < 0.05);
  volatile std::uint32_t sink = state ^ out[0];
  (void)sink;
  return static_cast<double>(bytes) / elapsed / 1e9;
}

std::string json_number(double v) {
  // A percentile that lands on a failed I/O is infinite; JSON has no
  // infinity, so it reads as 1e9 µs (1 000 s), past any latency limit.
  if (!std::isfinite(v)) v = 1e9;
  return strf("%.17g", v);
}

void print_spans(const std::vector<HostSpans::Span>& spans) {
  std::printf("host spans (first traced repetition):\n");
  std::printf("  %-36s %12s %12s\n", "span", "total_s", "self_s");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const HostSpans::Span& s = spans[i];
    double children = 0.0;
    for (const HostSpans::Span& c : spans) {
      if (c.parent == static_cast<int>(i)) children += c.t1 - c.t0;
    }
    std::printf("  %-36s %12.6f %12.6f\n", s.name.c_str(), s.t1 - s.t0,
                s.t1 - s.t0 - children);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) return usage(argv[0]);
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (o.workload == cand.name) w = &cand;
  }
  if (w == nullptr) return usage(argv[0]);

#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  if (!ndebug) {
    std::fprintf(stderr,
                 "perfbench: refusing to report host-time metrics from an "
                 "assert-enabled build (configure with "
                 "-DCMAKE_BUILD_TYPE=Release)\n");
    return 3;
  }

  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  RepConfig cfg;
  cfg.smoke = o.smoke;
  cfg.plant_lost_io = o.plant_lost_io;
  const std::size_t k = w->sim_seeds;
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace, o.smoke ? " smoke" : "");
  std::printf("env: nproc=%d threads=%d kernel_tier=%s ndebug=%d seed=%llu "
              "sim_seeds=%zu\n",
              nproc, kFleetThreads,
              repro::kernels::tier_name(repro::kernels::active().tier),
              ndebug ? 1 : 0, static_cast<unsigned long long>(o.seed), k);

  // Dark repetitions (all of the budget at --trace 0, half at --trace 1),
  // then traced ones. Both cover every sub-seed; the dark set also keeps a
  // warm-up plus one more repetition for the host-time medians.
  const double dark_budget = o.trace == 0 ? o.seconds : o.seconds / 2;
  double rss_mib = 0.0;
  const std::vector<RepResult> dark =
      run_reps(*w, cfg, o.seed, dark_budget,
               o.trace == 0 ? std::max<std::size_t>(k + 1, 3)
                            : std::max<std::size_t>(k, 2),
               &rss_mib);
  std::vector<RepResult> traced;
  if (o.trace == 1) {
    cfg.traced = true;
    traced = run_reps(*w, cfg, o.seed, o.seconds / 2, k, nullptr);
  }

  // Correctness gates.
  std::vector<std::string> failures;
  auto fail = [&failures](const std::string& msg) {
    if (std::find(failures.begin(), failures.end(), msg) == failures.end()) {
      failures.push_back(msg);
    }
  };
  std::uint64_t attempted = 0, failed = 0;
  auto gate = [&](const RepResult& r) {
    attempted += r.io.issued;
    failed += r.io.failed + lost(r);
    if (lost(r) != 0) {
      fail(strf("lost I/O: issued %llu != completed %llu + failed %llu",
                static_cast<unsigned long long>(r.io.issued),
                static_cast<unsigned long long>(r.io.ok),
                static_cast<unsigned long long>(r.io.failed)));
    }
    if (o.workload == "rack_fio" && r.io.failed != 0) {
      fail(strf("rack_fio: %llu I/O errors",
                static_cast<unsigned long long>(r.io.failed)));
    }
    if (r.io.corrupt != 0) {
      fail(strf("%llu reads returned bytes that fail the seeded CRC",
                static_cast<unsigned long long>(r.io.corrupt)));
    }
    if (o.workload == "ec_repair" && !r.rebuild_ns) {
      fail("ec_repair: rebuild did not finish within the phase");
    }
  };
  for (std::size_t i = 0; i < dark.size(); ++i) {
    gate(dark[i]);
    if (i >= k && dark[i].digest != dark[i - k].digest) {
      fail("sim_digest differs across repetitions of one sub-seed");
    }
  }
  for (std::size_t i = 0; i < traced.size(); ++i) {
    gate(traced[i]);
    if (traced[i].digest != dark[i % k].digest) {
      fail("traced sim_digest differs from the dark one");
    }
  }

  // Sim-time metrics pool the first k dark repetitions (one per sub-seed).
  LatencySamples lat;
  double window_s = 0.0;
  std::uint64_t digest = 0, issued_k = 0, failed_k = 0;
  std::vector<double> rebuild_s;
  for (std::size_t j = 0; j < k; ++j) {
    const RepResult& r = dark[j];
    lat.append(r.io.window);
    window_s += static_cast<double>(r.window_ns) / 1e9;
    digest = mix(digest, r.digest);
    issued_k += r.io.issued;
    failed_k += r.io.failed + lost(r);
    if (r.rebuild_ns) {
      rebuild_s.push_back(static_cast<double>(*r.rebuild_ns) / 1e9);
    }
  }
  const std::size_t n = lat.total.size();
  const auto completed_in_window = static_cast<double>(std::count_if(
      lat.total.begin(), lat.total.end(),
      [](double v) { return std::isfinite(v); }));
  // Host-time medians skip the warm-up repetition.
  std::vector<double> setup, iops_host;
  for (std::size_t i = 1; i < dark.size(); ++i) {
    setup.push_back(dark[i].setup_s);
    iops_host.push_back(ios_per_host_s(dark[i]));
  }

  std::vector<std::pair<std::string, double>> metrics;
  std::printf("repetitions: dark=%zu traced=%zu\n", dark.size(),
              traced.size());
  std::printf("sim_digest = %016llx\n",
              static_cast<unsigned long long>(digest));
  if (o.trace == 0) {
    const double p50 = percentile(lat.total, 0.50);
    const double p99 = percentile(lat.total, 0.99);
    metrics = {{"setup_s", median(setup)},
               {"ios_per_host_s", median(iops_host)},
               {"peak_rss_mb", rss_mib},
               {"sim_iops", completed_in_window / window_s},
               {"sim_lat_p50_us", p50},
               {"sim_lat_p99_us", p99}};
    std::printf("setup_s = %.6f s (median of %zu)\n", median(setup),
                setup.size());
    std::printf("ios_per_host_s = %.1f 1/s (median of %zu)\n",
                median(iops_host), iops_host.size());
    std::printf("per repetition (setup_s/ios_per_host_s):");
    for (std::size_t i = 0; i < setup.size(); ++i) {
      std::printf(" %.4g/%.4g", setup[i], iops_host[i]);
    }
    std::printf("\n");
    std::printf("peak_rss_mb = %.1f MiB (after the first repetition)\n",
                rss_mib);
    std::printf("sim_iops = %.1f 1/s (n=%.0f over %.3f s)\n",
                completed_in_window / window_s, completed_in_window, window_s);
    std::printf("sim_lat_p50_us = %.3f us (n=%zu)\n", p50, n);
    std::printf("sim_lat_p99_us = %.3f us (n=%zu)\n", p99, n);
    // Only a percentile with at least ten samples beyond it is reported.
    if (static_cast<double>(n) * 0.001 >= 10.0) {
      std::printf("sim_lat_p999_us = %.3f us (n=%zu)\n",
                  percentile(lat.total, 0.999), n);
    } else {
      std::printf("sim_lat_p999_us omitted: n=%zu leaves fewer than 10 "
                  "samples beyond it\n", n);
    }
    std::printf("fail_ratio = %.6g ratio (%llu of %llu attempted)\n",
                issued_k > 0 ? static_cast<double>(failed_k) /
                                   static_cast<double>(issued_k)
                             : 0.0,
                static_cast<unsigned long long>(failed_k),
                static_cast<unsigned long long>(issued_k));
    if (!rebuild_s.empty()) {
      std::printf("sim_rebuild_s = %.6f s (median of %zu)\n",
                  median(rebuild_s), rebuild_s.size());
    }
  } else {
    const RepResult& t0 = traced.front();
    std::vector<double> iops_traced;
    for (const RepResult& r : traced) iops_traced.push_back(ios_per_host_s(r));
    for (const auto& entry : t0.layer) {
      std::vector<double> v;
      for (const RepResult& r : traced) v.push_back(r.layer.at(entry.first));
      // Nearest-rank, so a count reads as a count one repetition made.
      metrics.emplace_back(entry.first, percentile(v, 0.5));
    }
    metrics.emplace_back("net.routes_s", t0.routes_s.value_or(0.0));
    metrics.emplace_back("kernels.mul_acc_gbps", kernel_gbps(false));
    metrics.emplace_back("kernels.crc_gbps", kernel_gbps(true));
    metrics.emplace_back("kernels.tier",
                         static_cast<double>(repro::kernels::active().tier));
    metrics.emplace_back("obs.overhead_ratio",
                         median(iops_host) / median(iops_traced));
    print_spans(t0.spans);
  }

  // Emit in the declared order, with units; a declared metric the run did
  // not produce is a benchmark bug and fails the run.
  std::string body;
  auto emit = [&](const MetricDef& d) {
    const auto it =
        std::find_if(metrics.begin(), metrics.end(),
                     [&d](const auto& m) { return m.first == d.name; });
    if (it == metrics.end()) {
      fail(strf("metric not produced: %s", d.name));
      return;
    }
    if (o.trace == 1) {
      std::printf("%-24s = %.6g %s\n", d.name, it->second, d.unit);
    }
    body += body.empty() ? "" : ", ";
    body += strf("\"%s\": {\"value\": %s, \"unit\": \"%s\"}", d.name,
                 json_number(it->second).c_str(), d.unit);
  };
  if (o.trace == 0) {
    for (const MetricDef& d : kEndToEnd) emit(d);
  } else {
    for (const MetricDef& d : kPerLayer) emit(d);
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "GATE FAILED: %s\n", f.c_str());
  }
  std::printf("gates: %s\n", failures.empty() ? "ok" : "FAILED");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), body.c_str());
  return failures.empty() ? 0 : 1;
}
