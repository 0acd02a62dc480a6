#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "obs/obs.h"
#include "qos/scheduler.h"

namespace perfbench {

int HostSpans::begin(std::string name, int parent) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.t0 = seconds_since(epoch_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

double HostSpans::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.t1 = seconds_since(epoch_);
  return s.t1 - s.t0;
}

double seconds_since(HostSpans::Clock::time_point t0) {
  return std::chrono::duration<double>(HostSpans::Clock::now() - t0).count();
}

void LatencySamples::append(const LatencySamples& o) {
  total.insert(total.end(), o.total.begin(), o.total.end());
  sa.insert(sa.end(), o.sa.begin(), o.sa.end());
  fn.insert(fn.end(), o.fn.begin(), o.fn.end());
  bn.insert(bn.end(), o.bn.begin(), o.bn.end());
  ssd.insert(ssd.end(), o.ssd.begin(), o.ssd.end());
}

IoLedger::IoLedger(ebs::Cluster& cluster, WindowBy by, bool time_submits)
    : cluster_(cluster),
      by_(by),
      time_submits_(time_submits),
      nodes_(static_cast<std::size_t>(cluster.num_compute())) {}

workload::SubmitFn IoLedger::submit_fn(int node, sim::Engine& home) {
  return [this, node, &home](transport::IoRequest io,
                             transport::IoCompleteFn done) {
    NodeLedger& nl = nodes_[static_cast<std::size_t>(node)];
    ++nl.issued;
    const TimeNs due = io.issued_at;
    const bool in_window_by_issue = due >= w0_ && due < w1_;
    transport::IoRequest shape;  // what the verifier needs of the request
    if (verify_ && io.op == transport::OpType::kRead) {
      shape.vd_id = io.vd_id;
      shape.op = io.op;
      shape.offset = io.offset;
      shape.len = io.len;
    }
    auto on_done = [this, &nl, &home, due, in_window_by_issue,
                    shape = std::move(shape),
                    done = std::move(done)](transport::IoResult res) {
      if (nl.lose_next) {
        nl.lose_next = false;
        return;
      }
      const TimeNs now = home.now();
      const bool ok = res.status == transport::StorageStatus::kOk;
      if (ok) {
        ++nl.ok;
        if (shape.len != 0 && !verify_(shape, res)) ++nl.corrupt;
      } else {
        ++nl.failed;
      }
      const double lat_us = static_cast<double>(now - due) / 1e3;
      nl.lat_sum_us += lat_us;
      const bool in_window = by_ == WindowBy::kIssue
                                 ? in_window_by_issue
                                 : now >= w0_ && now < w1_;
      if (in_window) {
        nl.window.total.push_back(
            ok ? lat_us : std::numeric_limits<double>::infinity());
        if (ok) {
          nl.window.sa.push_back(static_cast<double>(res.trace.sa_ns) / 1e3);
          nl.window.fn.push_back(static_cast<double>(res.trace.fn_ns) / 1e3);
          nl.window.bn.push_back(static_cast<double>(res.trace.bn_ns) / 1e3);
          nl.window.ssd.push_back(static_cast<double>(res.trace.ssd_ns) /
                                  1e3);
        }
      }
      done(std::move(res));
    };
    if (!time_submits_) {
      cluster_.compute(node).submit_io(std::move(io), std::move(on_done));
      return;
    }
    const auto t0 = HostSpans::Clock::now();
    cluster_.compute(node).submit_io(std::move(io), std::move(on_done));
    nl.submit_s += seconds_since(t0);
    ++nl.submit_calls;
  };
}

NodeLedger IoLedger::totals() const {
  NodeLedger t;
  for (const NodeLedger& n : nodes_) {
    t.issued += n.issued;
    t.ok += n.ok;
    t.failed += n.failed;
    t.corrupt += n.corrupt;
    t.lat_sum_us += n.lat_sum_us;
    t.submit_calls += n.submit_calls;
    t.submit_s += n.submit_s;
    t.window.append(n.window);
  }
  return t;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0xFF51AFD7ED558CCDull;
}

std::uint64_t sim_digest(std::uint64_t events, TimeNs end_time,
                         const IoLedger& ledger, ebs::Cluster& cluster,
                         const std::vector<std::uint64_t>& extra) {
  std::uint64_t h = mix(events, static_cast<std::uint64_t>(end_time));
  for (const NodeLedger& n : ledger.nodes()) {
    h = mix(h, n.ok);
    h = mix(h, n.failed);
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof n.lat_sum_us);
    std::memcpy(&bits, &n.lat_sum_us, sizeof bits);
    h = mix(h, bits);
  }
  h = mix(h, cluster.network().drops_total().total());
  for (std::uint64_t v : extra) h = mix(h, v);
  return h;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

namespace {

/// Mean over every retained sample of every series named `name`.
double series_mean(const obs::Obs& o, const std::string& name) {
  const auto& entries = o.registry().entries();
  double sum = 0.0;
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].name != name) continue;
    const obs::Sampler::Series* s = o.sampler().series_for(i);
    if (s == nullptr) continue;
    s->for_each([&](const obs::SeriesPoint& p) {
      sum += static_cast<double>(p.v);
      ++n;
    });
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void finish_traced(const RepConfig& cfg, ebs::Cluster& cluster,
                   const IoLedger& ledger, TimeNs sim_ns, HostSpans& spans,
                   RepResult& r) {
  if (cfg.time_routes) {
    const int s = spans.begin("net::Network::compute_routes");
    cluster.network().compute_routes();
    r.routes_s = spans.end(s);
  }
  r.spans = spans.spans();
  auto& L = r.layer;
  const double ios = static_cast<double>(r.io.ok + r.io.failed);
  const double sim_ns_d = static_cast<double>(sim_ns);

  // net
  const net::Clos& clos = cluster.clos();
  double forwarded = 0.0, rehashes = 0.0;
  for (const auto* group : {&clos.compute_tors, &clos.storage_tors,
                            &clos.compute_spines, &clos.storage_spines,
                            &clos.cores}) {
    for (const net::Switch* sw : *group) {
      forwarded += static_cast<double>(sw->forwarded());
      rehashes += static_cast<double>(sw->ecmp_rehashes());
    }
  }
  std::uint64_t queue_peak = 0;
  for (const auto& dev : cluster.network().devices()) {
    for (int p = 0; p < dev->num_ports(); ++p) {
      queue_peak = std::max(queue_peak, dev->port(p).stats().queue_bytes_peak);
    }
  }
  const net::Network::DropStats drops = cluster.network().drops_total();
  L["net.switch_forwarded"] = forwarded;
  L["net.hops_per_io"] = ratio(forwarded, ios);
  L["net.drops"] = static_cast<double>(drops.total());
  L["net.drops_queue_full"] = static_cast<double>(drops.queue_full);
  L["net.queue_bytes_peak"] = static_cast<double>(queue_peak);
  L["net.ecmp_rehashes"] = rehashes;

  // compute side: stacks, SA, DPU, admission, EC
  double solar_pkts = 0, solar_ios = 0, solar_rtx = 0, solar_pto = 0,
         solar_redraw = 0, solar_rpcs = 0;
  double tcp_rtx = 0, tcp_to = 0, sa_rpcs = 0, sa_split = 0;
  double dpu_busy = 0, dpu_cap = 0, pcie_bytes = 0;
  double admitted = 0, rejected = 0, bg_ns = 0, fg_ns = 0;
  double sub_ios = 0, parity = 0, degraded = 0, reconstructs = 0;
  double cells = 0, segs = 0, stalled = 0, repair_fail = 0;
  const int ec_k = cluster.params().ec.k;
  for (int i = 0; i < cluster.num_compute(); ++i) {
    ebs::ComputeNode& n = cluster.compute(i);
    const NodeLedger& nl = ledger.nodes()[static_cast<std::size_t>(i)];
    const double node_ios = static_cast<double>(nl.ok + nl.failed);
    if (solar::SolarClient* s = n.solar()) {
      const solar::SolarStats& st = s->stats();
      solar_pkts += static_cast<double>(st.data_pkts_tx);
      solar_rtx += static_cast<double>(st.retransmits);
      solar_pto += static_cast<double>(st.pkt_timeouts);
      solar_redraw += static_cast<double>(st.path_redraws);
      solar_rpcs += static_cast<double>(st.rpcs);
      solar_ios += node_ios;
    }
    if (transport::TcpStack* t = n.tcp()) {
      tcp_rtx += static_cast<double>(t->retransmits());
      tcp_to += static_cast<double>(t->timeouts());
    }
    if (sa::StorageAgent* a = n.agent()) {
      sa_rpcs += static_cast<double>(a->stats().rpcs);
      sa_split += static_cast<double>(a->stats().split_ios);
    }
    if (dpu::AliDpu* d = n.dpu()) {
      dpu_busy += static_cast<double>(d->cpu().total_busy_ns());
      dpu_cap += static_cast<double>(d->cpu().size()) * sim_ns_d;
      pcie_bytes += static_cast<double>(d->internal_pcie().bytes_transferred());
    }
    if (qos::NodeAdmission* adm = n.admission()) {
      for (int c = 0; c < qos::kSloClasses; ++c) {
        admitted += static_cast<double>(adm->stats().admitted[c]);
        rejected += static_cast<double>(adm->stats().rejected[c]);
      }
    }
    if (qos::CpuScheduler* sched = n.stack().scheduler()) {
      using qos::SloClass;
      bg_ns += static_cast<double>(sched->served_ns(SloClass::kBestEffort));
      fg_ns += static_cast<double>(sched->served_ns(SloClass::kGuaranteed));
    }
    if (ec::EcClient* ec = n.ec()) {
      sub_ios += static_cast<double>(ec->stats().sub_ios);
      parity += static_cast<double>(ec->stats().parity_updates);
      degraded += static_cast<double>(ec->stats().degraded_reads);
      reconstructs += static_cast<double>(ec->stats().reconstructs);
    }
    if (ec::MaintenanceAgent* m = n.maintenance()) {
      cells += static_cast<double>(m->stats().cells_rebuilt);
      segs += static_cast<double>(m->stats().segments_rebuilt);
      stalled += static_cast<double>(m->stats().segments_stalled);
      repair_fail += static_cast<double>(m->stats().repair_failures);
    }
  }
  L["solar.data_pkts_per_io"] = ratio(solar_pkts, solar_ios);
  L["solar.retransmits"] = solar_rtx;
  L["solar.pkt_timeouts"] = solar_pto;
  L["solar.path_redraws"] = solar_redraw;
  L["tcp.retransmits"] = tcp_rtx;
  L["tcp.timeouts"] = tcp_to;
  // Storage RPCs per guest I/O, whichever layer issues them: the software
  // SA on LUNA/RDMA/kernel nodes, the fused SOLAR client on SOLAR nodes.
  L["sa.rpcs_per_io"] = ratio(sa_rpcs + solar_rpcs, ios);
  L["sa.split_ios"] = sa_split;
  L["dpu.cpu_util"] = ratio(dpu_busy, dpu_cap);
  L["dpu.pcie_bytes_per_io"] = ratio(pcie_bytes, ios);
  L["qos.admitted"] = admitted;
  L["qos.rejected"] = rejected;
  L["qos.reject_ratio"] = ratio(rejected, admitted + rejected);
  L["qos.bg_share"] = ratio(bg_ns, bg_ns + fg_ns);
  L["ec.sub_ios_per_io"] = ratio(sub_ios, ios);
  L["ec.parity_updates"] = parity;
  L["ec.degraded_reads"] = degraded;
  L["ec.reconstructs"] = reconstructs;
  L["ec.cells_rebuilt"] = cells;
  L["ec.segments_rebuilt"] = segs;
  L["ec.repair_failures"] = repair_fail;
  L["ec.rebuild_yield"] = ratio(segs, segs + stalled);
  L["ec.rebuild_yield_base"] = segs + stalled;
  // GF(256) bytes the EC counters imply: a parity update sweeps one 4 KiB
  // cell, a degraded read or rebuild reconstruct decodes from k cells.
  L["kernels.bytes"] =
      static_cast<double>(ec::EcParams::kCellBytes) *
      (parity + static_cast<double>(ec_k) * (degraded + reconstructs));

  // storage side
  double ssd_ops = 0, st_busy = 0, st_cap = 0;
  for (int i = 0; i < cluster.num_storage(); ++i) {
    ebs::StorageNode& n = cluster.storage(i);
    ssd_ops += static_cast<double>(n.block_server().ssd_ops());
    st_busy += static_cast<double>(n.cpu().total_busy_ns());
    st_cap += static_cast<double>(n.cpu().size()) * sim_ns_d;
  }
  L["ssd.ops"] = ssd_ops;
  L["storage.cpu_util"] = ratio(st_busy, st_cap);

  // sampled backlogs (zero when the run sampled nothing)
  if (const obs::Obs* o = cluster.params().obs) {
    L["dpu.pcie_backlog_us"] = series_mean(*o, "dpu.pcie.backlog_ns") / 1e3;
    L["ssd.backlog_us"] = series_mean(*o, "ssd.queue_backlog_ns") / 1e3;
    L["obs.spans"] = static_cast<double>(o->tracer().total_recorded());
  }

  // per-term sim latency medians over the measured window
  L["ebs.lat_sa_p50_us"] = percentile(r.io.window.sa, 0.5);
  L["ebs.lat_fn_p50_us"] = percentile(r.io.window.fn, 0.5);
  L["ebs.lat_bn_p50_us"] = percentile(r.io.window.bn, 0.5);
  L["ebs.lat_ssd_p50_us"] = percentile(r.io.window.ssd, 0.5);

  L["workload.issued"] = static_cast<double>(r.io.issued);
  L["workload.completed"] = static_cast<double>(r.io.ok);
  L["workload.failed"] = static_cast<double>(r.io.failed);

  L["sim.events"] = static_cast<double>(r.events);
  L["sim.events_per_io"] = ratio(static_cast<double>(r.events), ios);
  L["sim.events_per_host_s"] = ratio(static_cast<double>(r.events), r.run_s);
  L["sim.run_s"] = r.run_s;
  L["sim.epochs"] = static_cast<double>(r.epochs);
  L["sim.events_per_epoch"] =
      ratio(static_cast<double>(r.events), static_cast<double>(r.epochs));
  L["net.cluster_build_s"] = r.cluster_build_s;
  L["sa.create_vd_us"] =
      ratio(r.create_vd_s * 1e6, static_cast<double>(r.create_vd_calls));
  L["stack.submit_us"] =
      ratio(r.io.submit_s * 1e6, static_cast<double>(r.io.submit_calls));
}

}  // namespace perfbench
