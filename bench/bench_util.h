// Shared plumbing for the experiment harnesses: cluster construction per
// stack generation, warmup/measure fio runs, and uniform table printing.
//
// Each bench binary regenerates one of the paper's tables/figures; see
// DESIGN.md §3 for the experiment index and EXPERIMENTS.md for paper-vs-
// measured notes.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/table.h"
#include "ebs/cluster.h"
#include "ebs/metrics.h"
#include "ebs/scenario.h"
#include "workload/fio.h"

namespace repro::bench {

/// The benches' canonical scenario: small fabric, one VD per compute node,
/// placeholder payloads (byte-level work is covered by the unit/property
/// tests and the fig11 campaign).
inline ebs::ScenarioSpec default_scenario(ebs::StackKind stack,
                                          int compute = 2, int storage = 8,
                                          std::uint64_t seed = 42) {
  ebs::ScenarioSpec spec;
  spec.name = "bench";
  spec.compute_nodes = compute;
  spec.storage_nodes = storage;
  spec.stack = stack;
  spec.seed = seed;
  return spec;
}

inline ebs::ClusterParams default_params(ebs::StackKind stack,
                                         int compute = 2, int storage = 8,
                                         std::uint64_t seed = 42) {
  return ebs::params_from(default_scenario(stack, compute, storage, seed));
}

/// Builds a one-shard cluster from hand-tuned params, one `vd_size` VD
/// per compute node.
inline ebs::Scenario make_cluster(ebs::ClusterParams params,
                                  std::uint64_t vd_size = 8ull << 30) {
  ebs::ScenarioSpec spec;
  spec.vd_size_bytes = vd_size;
  return ebs::build_scenario(spec, std::move(params));
}

/// Builds a cluster straight from a declarative scenario.
inline ebs::Scenario make_cluster(const ebs::ScenarioSpec& spec) {
  return ebs::build_scenario(spec, ebs::params_from(spec));
}

inline workload::SubmitFn submit_via(ebs::Cluster& cluster, int node) {
  return [&cluster, node](transport::IoRequest io,
                          transport::IoCompleteFn done) {
    cluster.compute(node).submit_io(std::move(io), std::move(done));
  };
}

/// Runs a closed-loop fio job on compute node 0: `warmup` to fill caches
/// and windows, then measures for `measure`. Returns the job's metrics
/// (cleared after warmup) and reports consumed cores over the window.
struct FioRunResult {
  ebs::MetricSink metrics;
  double consumed_cores = 0.0;
  TimeNs measured_ns = 0;
};

inline FioRunResult run_fio(ebs::Scenario& c, workload::FioConfig cfg,
                            TimeNs warmup, TimeNs measure, int node = 0,
                            std::uint64_t seed = 7) {
  auto& eng = c.cluster->engine();
  cfg.vd_id = c.vds[static_cast<std::size_t>(node)];
  workload::FioJob job(eng, submit_via(*c.cluster, node), cfg, Rng(seed));
  eng.at(eng.now(), [&] { job.start(); });
  eng.run_until(eng.now() + warmup);
  job.metrics().clear();
  c.cluster->reset_warmup();
  const TimeNs t0 = eng.now();
  eng.run_until(t0 + measure);
  job.stop();
  FioRunResult res;
  res.metrics = job.metrics();
  res.measured_ns = eng.now() - t0;
  res.consumed_cores = c.cluster->compute(node).consumed_cores(res.measured_ns);
  // Drain stragglers so destructors run on a quiet engine.
  eng.run_until(eng.now() + ms(50));
  return res;
}

/// Parses a `--threads 1,2,8` list (consumes `list`, strtok-style).
inline std::vector<int> parse_threads(char* list) {
  std::vector<int> threads;
  for (char* tok = std::strtok(list, ","); tok != nullptr;
       tok = std::strtok(nullptr, ",")) {
    threads.push_back(std::atoi(tok));
  }
  return threads;
}

/// The determinism gate of a thread sweep: the first run's fingerprint is
/// the reference, and every later thread count must reproduce it.
class FingerprintSweep {
 public:
  /// `label` prefixes the violation report (e.g. "diurnal_x10/on ").
  explicit FingerprintSweep(std::string label = "")
      : label_(std::move(label)) {}

  /// False (after reporting on stderr) when `fingerprint` differs from the
  /// sweep's first.
  bool check(std::uint64_t fingerprint, int threads) {
    if (!seen_) {
      seen_ = true;
      want_ = fingerprint;
      return true;
    }
    if (fingerprint == want_) return true;
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: %sfingerprint %016llx at %d "
                 "threads != %016llx\n",
                 label_.c_str(), static_cast<unsigned long long>(fingerprint),
                 threads, static_cast<unsigned long long>(want_));
    return false;
  }

 private:
  std::string label_;
  bool seen_ = false;
  std::uint64_t want_ = 0;
};

inline void print_header(const std::string& title, const std::string& paper) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper reference: %s\n", paper.c_str());
  std::printf("================================================================\n");
}

}  // namespace repro::bench
