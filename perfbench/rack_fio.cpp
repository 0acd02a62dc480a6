// rack_fio: the Fig. 7 rollout midpoint as a closed loop on one
// sim::Engine. Half the compute nodes run LUNA and half SOLAR (both hosted
// on ALI-DPU, so LUNA crosses the internal PCIe and SOLAR bypasses it), each
// driving its own VD with a fio job at iodepth 32, production I/O sizes and
// the paper's 1:3 read:write mix. Set-up is trivial and no bytes are coded,
// so host time goes to the per-I/O path: engine scheduling, per-hop fabric,
// both transport families, DPU CPU/PCIe and SSD.
#include <memory>

#include "harness.h"
#include "obs/obs.h"

namespace perfbench {

RepResult run_rack_fio(const RepConfig& cfg) {
  const int compute = cfg.smoke ? 2 : 4;
  const int storage = cfg.smoke ? 4 : 16;
  const TimeNs warmup = cfg.smoke ? ms(1) : ms(5);
  const TimeNs window = cfg.smoke ? ms(4) : ms(60);
  const std::uint64_t vd_size = 8ull << 30;

  ebs::ClusterParams p;
  p.topo.compute_servers = compute;
  p.topo.storage_servers = storage;
  p.on_dpu = true;
  p.compute_stacks = {ebs::StackKind::kLuna, ebs::StackKind::kSolar};
  p.seed = cfg.seed;
  std::unique_ptr<obs::Obs> obs;
  if (cfg.traced) {
    obs = std::make_unique<obs::Obs>();
    p.obs = obs.get();
  }

  RepResult r;
  HostSpans spans;
  sim::Engine eng;
  const int s_setup = spans.begin("setup");
  const int s_build = spans.begin("ebs::Cluster", s_setup);
  ebs::Cluster cluster(eng, p);
  r.cluster_build_s = spans.end(s_build);
  const int s_vd = spans.begin("ebs::Cluster::create_vd", s_setup);
  std::vector<std::uint64_t> vds;
  for (int i = 0; i < compute; ++i) vds.push_back(cluster.create_vd(vd_size));
  r.create_vd_s = spans.end(s_vd);
  r.create_vd_calls = vds.size();

  IoLedger ledger(cluster, WindowBy::kCompletion, cfg.traced);
  std::vector<std::unique_ptr<workload::FioJob>> jobs;
  const Rng root(cfg.seed);
  for (int i = 0; i < compute; ++i) {
    workload::FioConfig fc;
    fc.vd_id = vds[static_cast<std::size_t>(i)];
    fc.vd_size = vd_size;
    fc.block_size = 0;  // SizeDist::io_sizes()
    fc.iodepth = 32;
    fc.read_fraction = 0.25;  // 1 read : 3 writes
    jobs.push_back(std::make_unique<workload::FioJob>(
        eng, ledger.submit_fn(i, eng), fc,
        root.fork(100 + static_cast<std::uint64_t>(i))));
  }
  if (obs) obs->attach(eng);
  r.setup_s = spans.end(s_setup);

  const TimeNs t0 = eng.now();
  ledger.set_window(t0 + warmup, t0 + warmup + window);
  if (cfg.plant_lost_io) ledger.plant_lost_io();
  eng.at(t0, [&jobs] {
    for (auto& j : jobs) j->start();
  });
  const int s_run = spans.begin("sim::Engine::run");
  eng.run_until(t0 + warmup + window);
  for (auto& j : jobs) j->stop();
  eng.run();  // drain: every issued I/O completes
  r.run_s = spans.end(s_run);

  r.events = eng.executed();
  r.window_ns = window;
  r.io = ledger.totals();
  r.digest = sim_digest(r.events, eng.now(), ledger, cluster, {});
  if (cfg.traced) finish_traced(cfg, cluster, ledger, eng.now(), spans, r);
  return r;
}

}  // namespace perfbench
