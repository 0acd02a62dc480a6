// Figure 7: the five-year evolution of per-server average I/O latency and
// IOPS as LUNA and then SOLAR rolled out — latency -72%, IOPS ~3.2x.
//
// Method: measure each stack generation's average 4KB-mixed latency and
// per-server achievable IOPS in the simulator, then blend them with the
// quarterly deployment fractions from the paper's narrative (LUNA ramping
// 2019Q1-2021Q1, SOLAR at scale from 2020Q4). The *measured* stack numbers
// drive the curve; only the rollout schedule is taken from the paper.
//
// --rollout simulates the transition *directly* instead of blending: one
// heterogeneous cluster per step, the fleet stepping node-by-node from 100%
// LUNA to 100% SOLAR, every node driving load over the shared fabric at
// once. --scenario FILE replaces the built-in base ScenarioSpec.
#include <cstdio>
#include <memory>
#include <string>

#include "bench_json.h"
#include "bench_util.h"

using namespace repro;
using ebs::StackKind;

namespace {

struct StackPerf {
  double avg_latency_us = 0;
  double kiops_per_server = 0;
};

StackPerf measure(StackKind stack) {
  StackPerf p;
  // Latency: shallow queue depth (what a guest's synchronous I/O sees).
  {
    auto params = bench::default_params(stack, 1, 8);
    if (stack == StackKind::kSolar) params.on_dpu = true;
    auto c = bench::make_cluster(params);
    workload::FioConfig cfg;
    cfg.block_size = 0;  // production size mix
    cfg.iodepth = 12;    // production-loaded server, not an idle lab
    cfg.read_fraction = 1.0 - workload::kWriteFraction;
    auto res = bench::run_fio(*&c, cfg, ms(10), ms(40));
    p.avg_latency_us = to_us(static_cast<TimeNs>(res.metrics.total().mean()));
  }
  // IOPS capability: deep queue of 4KB I/Os on a *single core* (the
  // paper's per-core basis, Fig. 14b / §4.8; fleet IOPS scales with the
  // per-era core budget).
  {
    auto params = bench::default_params(stack, 1, 8);
    if (stack == StackKind::kSolar) params.on_dpu = true;
    params.host_cpu_cores = 1;
    params.dpu.cpu_cores = 1;
    auto c = bench::make_cluster(params);
    workload::FioConfig cfg;
    cfg.block_size = 4096;
    cfg.iodepth = 64;
    cfg.read_fraction = 1.0 - workload::kWriteFraction;
    auto res = bench::run_fio(*&c, cfg, ms(10), ms(40));
    p.kiops_per_server = res.metrics.iops(res.measured_ns) / 1e3;
  }
  return p;
}

/// The built-in rollout scenario: a 4-node fleet under a production-mix
/// closed loop, small enough for CI yet enough nodes to see the blend move.
ebs::ScenarioSpec rollout_scenario() {
  ebs::ScenarioSpec spec = bench::default_scenario(StackKind::kLuna, 4, 8);
  spec.name = "fig07_rollout";
  spec.workload.block_size = 4096;
  spec.workload.iodepth = 16;
  spec.workload.read_fraction = 1.0 - workload::kWriteFraction;
  return spec;
}

/// One rollout step: first `solar_nodes` of the fleet converted to SOLAR,
/// the rest still LUNA, all driving the shared fabric simultaneously.
struct StepResult {
  double agg_kiops = 0;
  double mean_latency_us = 0;
};

StepResult run_step(const ebs::ScenarioSpec& base, int solar_nodes) {
  ebs::ScenarioSpec spec = base;
  const int n = spec.compute_nodes;
  spec.compute_stacks.assign(static_cast<std::size_t>(n), StackKind::kLuna);
  for (int i = 0; i < solar_nodes; ++i) {
    spec.compute_stacks[static_cast<std::size_t>(i)] = StackKind::kSolar;
  }
  auto c = bench::make_cluster(spec);
  auto& eng = c.cluster->engine();

  std::vector<std::unique_ptr<workload::FioJob>> jobs;
  for (int i = 0; i < n; ++i) {
    workload::FioConfig cfg;
    cfg.vd_id = c.vds[static_cast<std::size_t>(i)];
    cfg.vd_size = spec.vd_size_bytes;
    cfg.block_size = spec.workload.block_size;
    cfg.iodepth = spec.workload.iodepth;
    cfg.read_fraction = spec.workload.read_fraction;
    cfg.sequential = spec.workload.sequential;
    cfg.real_payload = spec.workload.real_payload;
    jobs.push_back(std::make_unique<workload::FioJob>(
        eng, bench::submit_via(*c.cluster, i), cfg,
        Rng(7 + static_cast<std::uint64_t>(i))));
  }
  eng.at(eng.now(), [&] {
    for (auto& j : jobs) j->start();
  });
  eng.run_until(eng.now() + ms(10));
  for (auto& j : jobs) j->metrics().clear();
  c.cluster->reset_warmup();
  const TimeNs t0 = eng.now();
  eng.run_until(t0 + ms(40));
  for (auto& j : jobs) j->stop();
  const TimeNs measured = eng.now() - t0;

  StepResult r;
  double lat_weighted = 0;
  std::uint64_t ios = 0;
  for (auto& j : jobs) {
    r.agg_kiops += j->metrics().iops(measured) / 1e3;
    lat_weighted += j->metrics().total().mean() *
                    static_cast<double>(j->metrics().ios());
    ios += j->metrics().ios();
  }
  if (ios > 0) {
    r.mean_latency_us =
        to_us(static_cast<TimeNs>(lat_weighted / static_cast<double>(ios)));
  }
  eng.run_until(eng.now() + ms(50));  // drain before teardown
  return r;
}

int run_rollout(const std::string& scenario_file) {
  ebs::ScenarioSpec spec = rollout_scenario();
  if (!scenario_file.empty()) {
    std::string err;
    if (!ebs::scenario_from_file(scenario_file, &spec, &err)) {
      std::fprintf(stderr, "fig07: bad scenario: %s\n", err.c_str());
      return 2;
    }
  }

  bench::print_header(
      "Figure 7 (rollout): LUNA->SOLAR transition on one shared fabric",
      "Fig. 7 (mixed fleet; heterogeneous cluster per step)");
  std::printf("scenario: %s\n\n", spec.to_json().c_str());

  const int n = spec.compute_nodes;
  bench::RunSummary summary("fig07_rollout",
                            "Fig. 7 (mixed-fleet rollout steps)");
  TextTable t({"solar nodes", "solar %", "agg KIOPS", "mean latency (us)"});
  double first_lat = 0, first_kiops = 0;
  StepResult last;
  for (int k = 0; k <= n; ++k) {
    const StepResult r = run_step(spec, k);
    if (k == 0) {
      first_lat = r.mean_latency_us;
      first_kiops = r.agg_kiops;
    }
    last = r;
    t.add_row({TextTable::num(k, 0), TextTable::num(100.0 * k / n, 0),
               TextTable::num(r.agg_kiops, 0),
               TextTable::num(r.mean_latency_us, 1)});
    summary.row()
        .set("solar_nodes", static_cast<std::int64_t>(k))
        .set("solar_fraction", static_cast<double>(k) / n)
        .set("agg_kiops", r.agg_kiops)
        .set("mean_latency_us", r.mean_latency_us);
  }
  std::printf("%s", t.render().c_str());
  if (first_lat > 0 && first_kiops > 0) {
    std::printf("shape: full conversion cuts mean latency %.0f%% and lifts "
                "aggregate IOPS %.1fx on the same fabric\n",
                100.0 * (1.0 - last.mean_latency_us / first_lat),
                last.agg_kiops / first_kiops);
  }
  return summary.write() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool rollout = false;
  std::string scenario_file;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--rollout") {
      rollout = true;
    } else if (a == "--scenario" && i + 1 < argc) {
      scenario_file = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: fig07_evolution [--rollout [--scenario FILE]]\n");
      return 2;
    }
  }
  if (rollout) return run_rollout(scenario_file);

  bench::print_header(
      "Figure 7: evolution of average latency and IOPS per server",
      "Fig. 7 (latency -72%, IOPS ~3.2x over 2019Q1-2021Q4)");

  const StackPerf kernel = measure(StackKind::kKernelTcp);
  const StackPerf luna = measure(StackKind::kLuna);
  const StackPerf solar = measure(StackKind::kSolar);
  std::printf("measured per-stack (size-mix fio, depth 16): kernel %.0fus/"
              "%.0fK, luna %.0fus/%.0fK, solar %.0fus/%.0fK\n\n",
              kernel.avg_latency_us, kernel.kiops_per_server,
              luna.avg_latency_us, luna.kiops_per_server,
              solar.avg_latency_us, solar.kiops_per_server);

  // Deployment fractions per quarter (paper narrative: LUNA released 2019,
  // fully deployed 2021Q1; SOLAR deployed from 2020, at scale 2021).
  struct Quarter {
    const char* name;
    double luna;
    double solar;
  };
  const Quarter quarters[] = {
      {"19Q1", 0.05, 0.00}, {"19Q2", 0.15, 0.00}, {"19Q3", 0.30, 0.00},
      {"19Q4", 0.45, 0.00}, {"20Q1", 0.60, 0.02}, {"20Q2", 0.72, 0.06},
      {"20Q3", 0.82, 0.12}, {"20Q4", 0.90, 0.20}, {"21Q1", 0.97, 0.30},
      {"21Q2", 0.80, 0.45}, {"21Q3", 0.55, 0.65}, {"21Q4", 0.35, 0.85},
  };

  TextTable t({"quarter", "luna %", "solar %", "avg latency (us)",
               "norm latency", "KIOPS", "norm IOPS"});
  double lat0 = 0, iops_last = 0;
  std::vector<std::array<double, 2>> series;
  for (const auto& q : quarters) {
    const double kernel_frac = std::max(0.0, 1.0 - q.luna - q.solar);
    const double lat = kernel_frac * kernel.avg_latency_us +
                       q.luna * luna.avg_latency_us +
                       q.solar * solar.avg_latency_us;
    const double iops = kernel_frac * kernel.kiops_per_server +
                        q.luna * luna.kiops_per_server +
                        q.solar * solar.kiops_per_server;
    if (lat0 == 0) lat0 = lat;
    iops_last = iops;
    series.push_back({lat, iops});
  }
  for (std::size_t i = 0; i < series.size(); ++i) {
    const auto& q = quarters[i];
    t.add_row({q.name, TextTable::num(100 * q.luna, 0),
               TextTable::num(100 * q.solar, 0),
               TextTable::num(series[i][0], 0),
               TextTable::num(series[i][0] / lat0, 2),
               TextTable::num(series[i][1], 0),
               TextTable::num(series[i][1] / iops_last, 2)});
  }
  std::printf("%s", t.render().c_str());
  std::printf("shape: latency reduction over the period = %.0f%% "
              "(paper: 72%%); IOPS scale-up = %.1fx (paper: ~3.2x)\n",
              100.0 * (1.0 - series.back()[0] / lat0),
              series.back()[1] / series.front()[1]);
  return 0;
}
