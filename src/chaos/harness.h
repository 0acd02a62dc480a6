// Chaos harness: one run — an ebs::ScenarioSpec plus a FaultPlan — under
// full oracle supervision.
//
// Lifecycle: build a small cluster with real payloads → closed-loop fio
// plus an open-loop Poisson stream per compute node, submits wrapped by
// the OracleBoard → warmup → arm the plan → active fault window →
// repair_all → drain to quiesce (bounded) → quiesce checks → durability
// read-back of a deterministic sample of committed cells. The RunReport
// carries a determinism signature — two runs of the same config must match
// it bit-for-bit, faults and all.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/oracle.h"
#include "ebs/cluster.h"
#include "ebs/scenario.h"

namespace repro::obs {
class Obs;
}

namespace repro::chaos {

/// The chaos defaults: a small SOLAR fleet (fault coverage, not
/// throughput, is the point) of 2 compute and 4 storage nodes in racks of
/// two, one 1 GiB VD per compute node, seed 1. The workload is one
/// open-loop Poisson stream per compute node at 1 500 IOPS (rate-bounded,
/// and open-loop arrivals keep probing a broken path the way guests do)
/// plus one closed-loop fio job capped at 400 I/Os for queue-depth
/// backpressure: iodepth 4, 8 KiB blocks, read fraction 0.3. Payloads
/// are real and stored, as `run_chaos` requires.
ebs::ScenarioSpec default_scenario();

struct HarnessConfig {
  /// What the run simulates: topology, stacks, VDs (with any SLOs),
  /// workload, qos/ec/placement knobs, seed, shards and threads.
  /// `run_chaos` builds the cluster from it and drives each compute node's
  /// VD across its whole size. It refuses — a report holding one "config"
  /// violation, nothing run — a spec with `store_payload` or
  /// `workload.real_payload` off (the durability oracle needs bytes), a
  /// `workload.sequential` one, or `vds` not listing exactly one VD per
  /// compute node. With `ec` enabled the run also
  /// audits EC durability, mid-run against the plan's live storage
  /// outages (m+1 concurrent fragment losses fire "ec_durability") and
  /// again at post-repair quiesce. With shards > 1 each compute node gets
  /// its own oracle board on its home shard. The report signature never
  /// depends on `threads`.
  ebs::ScenarioSpec scenario = default_scenario();
  FaultPlan plan;

  /// Capacity throttle for rejection-storm runs: saturating the default
  /// six-core DPU takes offered loads too big to simulate cheaply, so
  /// storms shrink the node instead (0 = stack default).
  int dpu_cpu_cores = 0;
  TimeNs solar_cpu_per_rpc = 0;

  // Phases.
  TimeNs warmup = ms(50);
  TimeNs active = seconds(1);     ///< window the plan plays out in
  TimeNs drain_slice = ms(100);
  TimeNs drain_limit = seconds(30);  ///< give up draining after this

  OracleConfig oracle;
  int readback_samples = 48;

  /// Planted bug for fuzzer validation: SOLAR never declares a path dead,
  /// so silent failures pin I/O exactly like LUNA — the hang oracle must
  /// catch it.
  bool disable_solar_failover = false;

  /// Optional observability (trace export for repro bundles). Must not
  /// change the run — the determinism sweep asserts it.
  obs::Obs* obs = nullptr;
};

struct RunReport {
  std::vector<Violation> violations;
  std::uint64_t ios_completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t hangs = 0;
  std::uint64_t crc_checks = 0;
  std::uint64_t faults_applied = 0;
  std::uint64_t faults_reverted = 0;
  // Determinism signature.
  std::uint64_t executed = 0;
  TimeNs end_time = 0;

  bool ok() const { return violations.empty(); }
  /// Compact fingerprint for bit-reproducibility comparisons.
  std::string signature() const;
};

/// Decide whether the hang oracle may be armed for `cfg`: SOLAR-family
/// stack and a plan within the hang-safe envelope (see GeneratorConfig).
bool hang_oracle_applicable(ebs::StackKind stack, const FaultPlan& plan);

RunReport run_chaos(const HarnessConfig& cfg);

}  // namespace repro::chaos
