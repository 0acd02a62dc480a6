// ec_repair: a SOLAR erasure-coded fleet (k=4, m=2, one compute node,
// seven storage nodes) moving real payloads with CRCs, on one throttled DPU
// core. Phase 1 seeds the data region with closed-loop 8 KiB writes (EC
// read-modify-write and parity encode). Phase 2 is an open-loop Poisson
// stream of 4 KiB reads while one fragment holder is fail-stopped and the
// MaintenanceAgent rebuilds it, uncapped, as best-effort WFQ traffic. This
// is the only workload that moves real bytes, so the GF(256)/CRC kernels,
// the EC client and maintenance plane, and qos::CpuScheduler do most of its
// work. Every foreground read is checked against the seeded bytes.
#include <cstring>
#include <functional>
#include <memory>

#include "common/crc32.h"
#include "ec/maintenance.h"
#include "harness.h"
#include "obs/obs.h"

namespace perfbench {

RepResult run_ec_repair(const RepConfig& cfg) {
  const int k = cfg.smoke ? 2 : 4;
  const int m = cfg.smoke ? 1 : 2;
  const int storage = cfg.smoke ? 4 : 7;
  const std::uint64_t seed_bytes = cfg.smoke ? (2ull << 20) : (64ull << 20);
  const TimeNs phase2 = cfg.smoke ? ms(300) : ms(1500);
  const double read_iops = 4000.0;
  const std::uint64_t vd_size = 256ull << 20;
  constexpr std::uint32_t kBlock = ec::EcParams::kCellBytes;
  constexpr std::uint32_t kSeedWrite = 8192;

  // Generated inputs: one random 4 KiB pattern per seeded block, with the
  // CRC every foreground read of that block must reproduce.
  const std::size_t nblocks = seed_bytes / kBlock;
  std::vector<std::vector<std::uint8_t>> blocks(nblocks);
  std::vector<std::uint32_t> crcs(nblocks);
  const Rng root(cfg.seed);
  Rng bytes = root.fork(1);
  for (std::size_t b = 0; b < nblocks; ++b) {
    blocks[b].resize(kBlock);
    for (std::uint32_t i = 0; i < kBlock; i += 8) {
      const std::uint64_t x = bytes.next();
      std::memcpy(blocks[b].data() + i, &x, 8);
    }
    crcs[b] = crc32_raw(blocks[b]);
  }

  ebs::ClusterParams p;
  p.topo.compute_servers = 1;
  p.topo.storage_servers = storage;
  p.topo.servers_per_rack = storage;
  p.stack = ebs::StackKind::kSolar;
  p.seed = cfg.seed;
  p.block_server.store_payload = true;
  p.ec.enabled = true;
  p.ec.k = k;
  p.ec.m = m;
  p.ec.rebuild_concurrency = 2;
  p.ec.rebuild_bandwidth_cap = 0.0;  // uncapped
  // One throttled DPU core: rebuild sub-I/Os and guest reads contend for
  // the same dispatch point, which the WFQ scheduler arbitrates.
  p.dpu.cpu_cores = 1;
  p.solar.cpu_per_rpc = us(20);
  p.qos.enabled = true;
  p.qos.sched_enabled = true;
  std::unique_ptr<obs::Obs> obs;
  if (cfg.traced) {
    obs::ObsConfig oc;
    oc.sample_interval = ms(2);
    obs = std::make_unique<obs::Obs>(oc);
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
  const std::uint64_t vd = cluster.create_vd(vd_size);
  r.create_vd_s = spans.end(s_vd);
  r.create_vd_calls = 1;
  qos::SloSpec slo;
  slo.cls = qos::SloClass::kGuaranteed;
  cluster.set_slo(vd, slo);

  IoLedger ledger(cluster, WindowBy::kIssue, cfg.traced);
  ledger.set_verifier([&](const transport::IoRequest& io,
                          const transport::IoResult& res) {
    if (res.read_data.size() != io.len / kBlock) return false;
    for (const transport::DataBlock& blk : res.read_data) {
      const std::uint64_t b = blk.lba / kBlock;
      if (blk.lba % kBlock != 0 || b >= nblocks || blk.data.size() != kBlock ||
          crc32_raw(blk.data) != crcs[b]) {
        return false;
      }
    }
    return true;
  });
  workload::SubmitFn submit = ledger.submit_fn(0, eng);
  if (obs) obs->attach(eng);
  r.setup_s = spans.end(s_setup);

  // Phase 1: closed-loop seed writes, one outstanding at a time.
  const int s_run = spans.begin("sim::Engine::run");
  std::uint64_t next_off = 0;
  std::function<void()> write_next = [&] {
    if (next_off >= seed_bytes) return;
    transport::IoRequest io;
    io.vd_id = vd;
    io.op = transport::OpType::kWrite;
    io.offset = next_off;
    io.len = kSeedWrite;
    io.payload =
        transport::make_placeholder_blocks(next_off, kSeedWrite, kBlock);
    for (transport::DataBlock& blk : io.payload) {
      blk.data = blocks[blk.lba / kBlock];
      blk.crc = crcs[blk.lba / kBlock];
    }
    io.issued_at = eng.now();
    next_off += kSeedWrite;
    submit(std::move(io), [&write_next](transport::IoResult) { write_next(); });
  };
  eng.at(eng.now(), [&write_next] { write_next(); });
  eng.run();

  // Phase 2: foreground reads while one fragment holder is fail-stopped.
  const TimeNs p2 = eng.now();
  ledger.set_window(p2, p2 + phase2);
  if (cfg.plant_lost_io) ledger.plant_lost_io();
  workload::PoissonConfig gc;
  gc.vd_id = vd;
  gc.vd_size = seed_bytes;
  gc.iops = read_iops;
  gc.read_fraction = 1.0;  // writes to a dead holder would wedge
  gc.block_size = kBlock;
  workload::PoissonLoad load(eng, submit, gc, root.fork(2));
  eng.at(p2, [&load] { load.start(); });

  ec::MaintenanceAgent& agent = *cluster.compute(0).maintenance();
  const net::IpAddr victim =
      cluster.segments().ec_fragments(vd, 0)[0].block_server;
  // The holder dies as the stream starts, before any read is in flight to
  // it: a read already in flight to a fail-stopped holder never completes
  // in this simulator, which the lost-I/O gate would (rightly) reject.
  const TimeNs kill_at = p2;
  eng.at(kill_at, [&] {
    for (int i = 0; i < cluster.num_storage(); ++i) {
      if (cluster.storage(i).nic().ip() == victim) {
        cluster.network().fail_device_stop(cluster.storage(i).nic());
      }
    }
    cluster.compute(0).ec()->mark_server(victim, false);
    agent.force_server_down(victim);
  });
  // MTTR: the first poll after kill that finds the rebuild drained. Polling
  // ends with the phase, so an unfinished rebuild cannot keep the run alive.
  TimeNs rebuilt_at = 0;
  std::function<void()> poll = [&] {
    if (agent.idle() && agent.stats().segments_rebuilt > 0) {
      rebuilt_at = eng.now();
      return;
    }
    if (eng.now() >= p2 + phase2) return;
    eng.schedule_after(us(200), [&poll] { poll(); });
  };
  eng.at(kill_at + us(200), [&poll] { poll(); });

  eng.run_until(p2 + phase2);
  load.stop();
  // Drain for a bounded time: health probes of the dead holder (it still
  // owns fragments of never-written segments) keep the queue non-empty, so
  // run() would not return. The lost-I/O gate checks the drain was enough.
  eng.run_until(eng.now() + ms(200));
  r.run_s = spans.end(s_run);

  r.events = eng.executed();
  r.window_ns = phase2;
  if (rebuilt_at != 0) r.rebuild_ns = rebuilt_at - kill_at;
  r.io = ledger.totals();
  const ec::EcClient::Stats& es = cluster.compute(0).ec()->stats();
  r.digest = sim_digest(
      r.events, eng.now(), ledger, cluster,
      {es.sub_ios, es.degraded_reads, es.parity_updates, es.reconstructs,
       agent.stats().cells_rebuilt, agent.stats().segments_rebuilt,
       static_cast<std::uint64_t>(rebuilt_at)});
  if (cfg.traced) finish_traced(cfg, cluster, ledger, eng.now(), spans, r);
  return r;
}

}  // namespace perfbench
