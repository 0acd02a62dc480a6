// fleet_open: an open loop over a ~2 000-server, 10^5-VD fleet on the
// sharded engine. SOLAR everywhere, per-node QoS admission with early
// rejection armed under a uniform SLO, and a Poisson 4 KiB stream (70 %
// reads) from every compute node round-robining its slice of VDs. Host time
// goes to set-up (the compute_routes BFS, node construction, VD mapping) and
// to the sharded engine's barriers and mailboxes; every I/O passes the
// admission layer.
#include <algorithm>
#include <memory>

#include "harness.h"
#include "obs/obs.h"

namespace perfbench {

RepResult run_fleet_open(const RepConfig& cfg) {
  const int nodes = cfg.smoke ? 64 : 2000;
  const int vds = cfg.smoke ? 2000 : 100000;
  const int shards = cfg.smoke ? 4 : 8;
  const TimeNs warmup = cfg.smoke ? us(500) : ms(1);
  const TimeNs window = cfg.smoke ? ms(1) : ms(2);
  // High enough that every 2 µs epoch carries real work across 8 shards.
  const double iops_per_node = 20000.0;
  const std::uint64_t vd_size = 256ull << 20;

  ebs::ClusterParams p;
  p.topo.compute_servers = nodes / 2;
  p.topo.storage_servers = nodes - nodes / 2;
  p.topo.servers_per_rack = 8;
  p.topo.spines_per_pod = 4;
  p.topo.core_switches = 4;
  // Coarser fabric propagation = coarser conservative lookahead (as in
  // bench/fleet_scale): fewer epochs for a little wire realism.
  p.topo.fabric_prop = us(2);
  p.stack = ebs::StackKind::kSolar;
  p.seed = cfg.seed;
  p.vd_stripe_width = 4;
  p.qos.enabled = true;
  p.qos.early_reject = true;
  std::unique_ptr<obs::Obs> obs;
  if (cfg.traced) {
    // Sampling off: the barrier hook below counts epochs instead.
    obs::ObsConfig oc;
    oc.sample_interval = 0;
    obs = std::make_unique<obs::Obs>(oc);
    p.obs = obs.get();
  }

  RepResult r;
  HostSpans spans;
  sim::ShardedEngine se(shards, kFleetThreads);
  const int s_setup = spans.begin("setup");
  const int s_build = spans.begin("ebs::Cluster", s_setup);
  ebs::Cluster cluster(se, p);
  r.cluster_build_s = spans.end(s_build);
  const int s_vd = spans.begin("ebs::Cluster::create_vd", s_setup);
  const std::uint64_t first_vd = cluster.create_vd(vd_size);
  for (int v = 1; v < vds; ++v) cluster.create_vd(vd_size);
  r.create_vd_s = spans.end(s_vd);
  r.create_vd_calls = static_cast<std::uint64_t>(vds);
  qos::SloSpec slo;
  slo.target_p99 = ms(20);
  for (int v = 0; v < vds; ++v) {
    cluster.set_slo(first_vd + static_cast<std::uint64_t>(v), slo);
  }

  const int ncompute = cluster.num_compute();
  const auto span =  // VDs per compute node
      static_cast<std::uint64_t>(std::max(1, vds / ncompute));
  IoLedger ledger(cluster, WindowBy::kIssue, cfg.traced);
  struct NodeLoad {
    std::unique_ptr<workload::PoissonLoad> gen;
    std::uint64_t next_vd = 0;
  };
  std::vector<NodeLoad> loads(static_cast<std::size_t>(ncompute));
  const Rng root(cfg.seed);
  for (int i = 0; i < ncompute; ++i) {
    sim::ShardScope scope(cluster.compute_shard(i));
    const std::uint64_t base = first_vd + static_cast<std::uint64_t>(i) * span;
    NodeLoad& nl = loads[static_cast<std::size_t>(i)];
    auto submit = [&nl, base, span, inner = ledger.submit_fn(
                                        i, cluster.engine())](
                      transport::IoRequest io, transport::IoCompleteFn done) {
      io.vd_id = base + (nl.next_vd++ % span);
      inner(std::move(io), std::move(done));
    };
    workload::PoissonConfig pc;
    pc.vd_id = base;
    pc.vd_size = vd_size;
    pc.iops = iops_per_node;
    pc.read_fraction = 0.7;
    pc.block_size = 4096;
    nl.gen = std::make_unique<workload::PoissonLoad>(
        cluster.engine(), submit, pc,
        root.fork(100 + static_cast<std::uint64_t>(i)));
  }
  if (cfg.traced) {
    se.set_barrier_hook([&r](TimeNs) { ++r.epochs; });
  }
  r.setup_s = spans.end(s_setup);

  const TimeNs t0 = se.now();
  ledger.set_window(t0 + warmup, t0 + warmup + window);
  if (cfg.plant_lost_io) ledger.plant_lost_io();
  for (int i = 0; i < ncompute; ++i) {
    sim::ShardScope scope(cluster.compute_shard(i));
    sim::Engine& he = cluster.engine();
    he.at(he.now(), [&loads, i] {
      loads[static_cast<std::size_t>(i)].gen->start();
    });
  }
  const int s_run = spans.begin("sim::ShardedEngine::run");
  se.run_until(t0 + warmup + window);
  for (NodeLoad& nl : loads) nl.gen->stop();
  se.run();  // drain: every issued I/O completes
  r.run_s = spans.end(s_run);
  se.set_barrier_hook({});

  r.events = se.executed();
  r.window_ns = window;
  r.io = ledger.totals();
  r.digest = sim_digest(r.events, se.now(), ledger, cluster, {});
  if (cfg.traced) finish_traced(cfg, cluster, ledger, se.now(), spans, r);
  return r;
}

}  // namespace perfbench
