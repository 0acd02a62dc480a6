#include "chaos/injector.h"

#include "dpu/fpga.h"
#include "ebs/cluster.h"

namespace repro::chaos {

namespace {

int wrap(int index, int count) {
  if (count <= 0) return 0;
  const int m = index % count;
  return m < 0 ? m + count : m;
}

net::Switch* pick(const std::vector<net::Switch*>& v, int index) {
  if (v.empty()) return nullptr;
  return v[static_cast<std::size_t>(wrap(index, static_cast<int>(v.size())))];
}

}  // namespace

Injector::Injector(ebs::Cluster& cluster) : cluster_(cluster) {}

TopologyShape Injector::shape() const {
  const net::Clos& clos = cluster_.clos();
  TopologyShape s;
  s.compute_nodes = cluster_.num_compute();
  s.storage_nodes = cluster_.num_storage();
  s.compute_tors = static_cast<int>(clos.compute_tors.size());
  s.storage_tors = static_cast<int>(clos.storage_tors.size());
  s.compute_spines = static_cast<int>(clos.compute_spines.size());
  s.storage_spines = static_cast<int>(clos.storage_spines.size());
  s.cores = static_cast<int>(clos.cores.size());
  s.replica_ssds =
      s.storage_nodes > 0
          ? cluster_.storage(0).block_server().num_replica_ssds()
          : 0;
  // Only the fully-offloaded generation pushes data through the FPGA
  // pipeline; SOLAR* and the software stacks never touch it. Heterogeneous
  // fleets count as FPGA-bearing if any node runs that generation.
  s.has_fpga = false;
  for (int i = 0; i < s.compute_nodes; ++i) {
    if (stack::has_fpga_datapath(cluster_.compute(i).stack_kind())) {
      s.has_fpga = true;
      break;
    }
  }
  return s;
}

int Injector::home_shard(const FaultTarget& t) const {
  if (const net::Device* dev = resolve_device(t)) return dev->shard();
  switch (t.kind) {
    case TargetKind::kStorageSsd:
    case TargetKind::kStorageCpu:
      return cluster_.storage_shard(wrap(t.index, cluster_.num_storage()));
    case TargetKind::kComputeCpu:
    case TargetKind::kComputePcie:
    case TargetKind::kComputeFpga:
      return cluster_.compute_shard(wrap(t.index, cluster_.num_compute()));
    default:
      return 0;
  }
}

net::Device* Injector::resolve_device(const FaultTarget& t) const {
  const net::Clos& clos = cluster_.clos();
  switch (t.kind) {
    case TargetKind::kComputeNic:
      return &cluster_.compute(wrap(t.index, cluster_.num_compute())).nic();
    case TargetKind::kStorageNic:
      return &cluster_.storage(wrap(t.index, cluster_.num_storage())).nic();
    case TargetKind::kComputeTor:
      return pick(clos.compute_tors, t.index);
    case TargetKind::kStorageTor:
      return pick(clos.storage_tors, t.index);
    case TargetKind::kComputeSpine:
      return pick(clos.compute_spines, t.index);
    case TargetKind::kStorageSpine:
      return pick(clos.storage_spines, t.index);
    case TargetKind::kCore:
      return pick(clos.cores, t.index);
    default:
      return nullptr;
  }
}

void Injector::arm(const FaultPlan& plan) {
  armed_.reserve(armed_.size() + plan.events.size());
  for (const FaultEvent& e : plan.events) {
    armed_.push_back(Armed{e});
    const std::size_t slot = armed_.size() - 1;
    Armed& a = armed_[slot];
    // Arm the timers on the target's home shard: apply/revert then run on
    // the worker that owns the device, never racing its event processing.
    a.home = home_shard(e.target);
    sim::ShardScope scope(a.home);
    sim::Engine& eng = cluster_.engine();
    a.eng = &eng;
    a.apply_timer =
        eng.schedule_after(e.at, [this, slot] { apply(armed_[slot]); });
    if (e.duration > 0) {
      a.revert_timer = eng.schedule_after(
          e.at + e.duration, [this, slot] { revert(armed_[slot]); });
    }
  }
}

void Injector::apply(Armed& a) {
  const FaultEvent& e = a.event;
  net::Network& net = cluster_.network();
  a.applied = true;
  applied_.fetch_add(1, std::memory_order_relaxed);
  switch (e.kind) {
    case FaultKind::kLinkFail: {
      net::Device* dev = resolve_device(e.target);
      if (dev == nullptr) break;
      const int port = wrap(e.target.sub < 0 ? 0 : e.target.sub,
                            dev->num_ports());
      net.fail_link(*dev, port);
      break;
    }
    case FaultKind::kDeviceStop: {
      if (net::Device* dev = resolve_device(e.target)) net.fail_device_stop(*dev);
      break;
    }
    case FaultKind::kDeviceSilent: {
      if (net::Device* dev = resolve_device(e.target)) net.set_silent(*dev, true);
      break;
    }
    case FaultKind::kBlackhole: {
      if (net::Device* dev = resolve_device(e.target)) {
        net.set_blackhole(*dev, e.magnitude);
      }
      break;
    }
    case FaultKind::kLoss: {
      if (net::Device* dev = resolve_device(e.target)) {
        net.set_loss_rate(*dev, e.magnitude);
      }
      break;
    }
    case FaultKind::kCorrupt: {
      if (net::Device* dev = resolve_device(e.target)) {
        net.set_corrupt_rate(*dev, e.magnitude);
      }
      break;
    }
    case FaultKind::kDuplicate: {
      if (net::Device* dev = resolve_device(e.target)) {
        net.set_dup_rate(*dev, e.magnitude);
      }
      break;
    }
    case FaultKind::kReorder: {
      if (net::Device* dev = resolve_device(e.target)) {
        net.set_reorder(*dev, e.magnitude, e.param > 0 ? e.param : us(150));
      }
      break;
    }
    case FaultKind::kSsdLatency:
    case FaultKind::kSsdStall: {
      auto& bs = cluster_.storage(wrap(e.target.index, cluster_.num_storage()))
                     .block_server();
      for (int i = 0; i < bs.num_replica_ssds(); ++i) {
        if (e.target.sub >= 0 && i != wrap(e.target.sub, bs.num_replica_ssds()))
          continue;
        if (e.kind == FaultKind::kSsdLatency) {
          bs.replica_ssd(i).set_latency_multiplier(e.magnitude);
        } else {
          bs.replica_ssd(i).set_stalled(true);
        }
      }
      break;
    }
    case FaultKind::kCpuStall: {
      // One-shot: the stall length is the event's duration, applied now.
      const TimeNs dur = e.duration > 0 ? e.duration : ms(100);
      if (e.target.kind == TargetKind::kStorageCpu) {
        cluster_.storage(wrap(e.target.index, cluster_.num_storage()))
            .cpu()
            .stall_all(dur);
      } else {
        cluster_.compute(wrap(e.target.index, cluster_.num_compute()))
            .stack()
            .chaos_stall_cores(dur);
      }
      break;
    }
    case FaultKind::kPcieDegrade: {
      auto& node = cluster_.compute(wrap(e.target.index, cluster_.num_compute()));
      a.saved_magnitude = node.stack().chaos_pcie_degrade(e.magnitude);
      break;
    }
    case FaultKind::kFpgaPreCrcFlip:
    case FaultKind::kFpgaPostCrcFlip:
    case FaultKind::kFpgaCrcEngine: {
      auto& node = cluster_.compute(wrap(e.target.index, cluster_.num_compute()));
      if (dpu::FpgaFaults* faults = node.stack().chaos_fpga_faults()) {
        dpu::FpgaFaults& f = *faults;
        if (e.kind == FaultKind::kFpgaPreCrcFlip) {
          a.saved_magnitude = f.pre_crc_bitflip_rate;
          f.pre_crc_bitflip_rate = e.magnitude;
        } else if (e.kind == FaultKind::kFpgaPostCrcFlip) {
          a.saved_magnitude = f.data_bitflip_rate;
          f.data_bitflip_rate = e.magnitude;
        } else {
          a.saved_magnitude = f.crc_engine_error_rate;
          f.crc_engine_error_rate = e.magnitude;
        }
      }
      break;
    }
  }
}

void Injector::revert(Armed& a) {
  if (a.reverted) return;
  const FaultEvent& e = a.event;
  net::Network& net = cluster_.network();
  a.reverted = true;
  reverted_.fetch_add(1, std::memory_order_relaxed);
  // CAS-max: reverts on different shards race, but the maximum is
  // order-independent, and in a single-shard run this is plain assignment.
  const TimeNs now = cluster_.engine().now();
  TimeNs prev = last_repair_.load(std::memory_order_relaxed);
  while (prev < now && !last_repair_.compare_exchange_weak(
                           prev, now, std::memory_order_relaxed)) {
  }
  switch (e.kind) {
    case FaultKind::kLinkFail: {
      net::Device* dev = resolve_device(e.target);
      if (dev == nullptr) break;
      const int port = wrap(e.target.sub < 0 ? 0 : e.target.sub,
                            dev->num_ports());
      net.repair_link(*dev, port);
      break;
    }
    case FaultKind::kDeviceStop: {
      if (net::Device* dev = resolve_device(e.target)) {
        for (int i = 0; i < dev->num_ports(); ++i) {
          if (dev->port(i).connected()) net.repair_link(*dev, i);
        }
      }
      break;
    }
    case FaultKind::kDeviceSilent: {
      if (net::Device* dev = resolve_device(e.target)) net.set_silent(*dev, false);
      break;
    }
    case FaultKind::kBlackhole: {
      if (net::Device* dev = resolve_device(e.target)) net.set_blackhole(*dev, 0.0);
      break;
    }
    case FaultKind::kLoss: {
      if (net::Device* dev = resolve_device(e.target)) net.set_loss_rate(*dev, 0.0);
      break;
    }
    case FaultKind::kCorrupt: {
      if (net::Device* dev = resolve_device(e.target)) net.set_corrupt_rate(*dev, 0.0);
      break;
    }
    case FaultKind::kDuplicate: {
      if (net::Device* dev = resolve_device(e.target)) net.set_dup_rate(*dev, 0.0);
      break;
    }
    case FaultKind::kReorder: {
      if (net::Device* dev = resolve_device(e.target)) net.set_reorder(*dev, 0.0, 0);
      break;
    }
    case FaultKind::kSsdLatency:
    case FaultKind::kSsdStall: {
      auto& bs = cluster_.storage(wrap(e.target.index, cluster_.num_storage()))
                     .block_server();
      for (int i = 0; i < bs.num_replica_ssds(); ++i) {
        if (e.target.sub >= 0 && i != wrap(e.target.sub, bs.num_replica_ssds()))
          continue;
        if (e.kind == FaultKind::kSsdLatency) {
          bs.replica_ssd(i).set_latency_multiplier(1.0);
        } else {
          bs.replica_ssd(i).set_stalled(false);
        }
      }
      break;
    }
    case FaultKind::kCpuStall:
      break;  // one-shot; nothing to undo
    case FaultKind::kPcieDegrade: {
      cluster_.compute(wrap(e.target.index, cluster_.num_compute()))
          .stack()
          .chaos_pcie_restore(a.saved_magnitude);
      break;
    }
    case FaultKind::kFpgaPreCrcFlip:
    case FaultKind::kFpgaPostCrcFlip:
    case FaultKind::kFpgaCrcEngine: {
      auto& node = cluster_.compute(wrap(e.target.index, cluster_.num_compute()));
      if (dpu::FpgaFaults* faults = node.stack().chaos_fpga_faults()) {
        dpu::FpgaFaults& f = *faults;
        if (e.kind == FaultKind::kFpgaPreCrcFlip) {
          f.pre_crc_bitflip_rate = a.saved_magnitude;
        } else if (e.kind == FaultKind::kFpgaPostCrcFlip) {
          f.data_bitflip_rate = a.saved_magnitude;
        } else {
          f.crc_engine_error_rate = a.saved_magnitude;
        }
      }
      break;
    }
  }
}

void Injector::repair_all() {
  // Runs from the coordinator with every shard quiescent, so touching
  // remote-shard state directly is safe; the shard scope keeps any engine
  // interaction on the fault's home engine.
  for (Armed& a : armed_) {
    sim::ShardScope scope(a.home);
    sim::Engine& eng = a.eng != nullptr ? *a.eng : cluster_.engine();
    if (!a.applied) {
      // Never fired: cancel the onset so it cannot apply post-repair.
      if (a.apply_timer != 0) eng.cancel(a.apply_timer);
      if (a.revert_timer != 0) eng.cancel(a.revert_timer);
      a.reverted = true;
      continue;
    }
    if (a.reverted) continue;
    if (a.revert_timer != 0) eng.cancel(a.revert_timer);
    revert(a);
  }
  const TimeNs now = cluster_.now();
  if (last_repair_.load(std::memory_order_relaxed) < now) {
    last_repair_.store(now, std::memory_order_relaxed);
  }
}

}  // namespace repro::chaos
