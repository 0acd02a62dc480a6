// Shared pieces of the benchmark program: per-repetition configuration and
// results, the per-node I/O ledger every workload submits through, host-time
// spans recorded around calls into the simulator's public API, and the
// per-layer counters read from a finished cluster.
//
// Everything here sits outside src/: the benchmark measures the simulator
// only through `ebs::Cluster`, `sim::Engine`, `sim::ShardedEngine` and the
// component accessors, so a change under src/ cannot also change how it is
// measured.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ebs/cluster.h"
#include "workload/fio.h"

namespace perfbench {

using namespace repro;

/// Inputs of one repetition. Everything the simulation sees derives from
/// `seed`; the other fields select sizes and instrumentation.
struct RepConfig {
  std::uint64_t seed = 1;
  bool smoke = false;          ///< CI-sized fleet and windows
  bool traced = false;         ///< attach obs::Obs and record host spans
  bool time_routes = false;    ///< traced: time a repeat compute_routes()
  bool plant_lost_io = false;  ///< self-test: swallow one completion
};

/// Worker threads of fleet_open's sharded engine. The 8-shard epochs,
/// mailboxes and barriers all still run, but serially. At min(nproc, 4)
/// threads on a shared 4-CPU host, one stolen vCPU stalls every epoch
/// barrier. Over ten runs that spread ios_per_host_s by 46 %, twice its
/// bound. bench/fleet_scale measures thread scaling.
inline constexpr int kFleetThreads = 1;

/// Host-time spans around the benchmark's own calls into each layer. Kept
/// in memory; main.cpp prints them (with self time) when the run ends.
class HostSpans {
 public:
  using Clock = std::chrono::steady_clock;
  struct Span {
    std::string name;
    int parent = -1;
    double t0 = 0.0;  ///< seconds since the spans' epoch
    double t1 = 0.0;
  };

  HostSpans() : epoch_(Clock::now()) {}
  int begin(std::string name, int parent = -1);
  /// Ends span `id`, returning its duration in seconds.
  double end(int id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

double seconds_since(HostSpans::Clock::time_point t0);

/// Latency samples (µs) of the measured window, one vector per term. A
/// failed or refused I/O is recorded as +inf in `total` (it misses every
/// latency limit).
struct LatencySamples {
  std::vector<double> total, sa, fn, bn, ssd;
  void append(const LatencySamples& o);
};

/// Per-compute-node I/O bookkeeping. Each node's completions run on that
/// node's home shard, so one ledger per node is touched by one thread at a
/// time and sharded runs need no locks.
struct NodeLedger {
  std::uint64_t issued = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;   ///< completed with a non-OK status
  std::uint64_t corrupt = 0;  ///< OK reads whose bytes failed verification
  double lat_sum_us = 0.0;
  std::uint64_t submit_calls = 0;
  double submit_s = 0.0;  ///< host time inside ComputeNode::submit_io
  bool lose_next = false;  ///< self-test: swallow the next completion
  LatencySamples window;
};

/// Which I/Os the measured window holds: closed loops count completions
/// inside it, open loops count requests whose due instant falls inside it.
enum class WindowBy { kCompletion, kIssue };

/// Checks an OK read's returned bytes; false marks the read corrupt.
using ReadVerifier = std::function<bool(const transport::IoRequest&,
                                        const transport::IoResult&)>;

class IoLedger {
 public:
  IoLedger(ebs::Cluster& cluster, WindowBy by, bool time_submits);

  /// Submit path for compute node `node`; `home` is the node's engine.
  workload::SubmitFn submit_fn(int node, sim::Engine& home);

  void set_window(TimeNs t0, TimeNs t1) {
    w0_ = t0;
    w1_ = t1;
  }
  void set_verifier(ReadVerifier v) { verify_ = std::move(v); }
  /// Self-test hook: node 0's next completion is swallowed (a lost I/O).
  void plant_lost_io() { nodes_.front().lose_next = true; }

  const std::vector<NodeLedger>& nodes() const { return nodes_; }
  NodeLedger totals() const;

 private:
  ebs::Cluster& cluster_;
  WindowBy by_;
  bool time_submits_;
  TimeNs w0_ = 0;
  TimeNs w1_ = 0;
  ReadVerifier verify_;
  std::vector<NodeLedger> nodes_;
};

/// Everything one repetition reports. Sim-time values are a pure function
/// of the seed; host-time values are what this run of the simulator took.
struct RepResult {
  // host time
  double setup_s = 0.0;  ///< Cluster ctor + VDs, up to the first event
  double cluster_build_s = 0.0;
  double create_vd_s = 0.0;
  std::uint64_t create_vd_calls = 0;
  double run_s = 0.0;  ///< inside run_until()/run()
  std::optional<double> routes_s;

  // guest I/O accounting over the whole repetition
  NodeLedger io;
  TimeNs window_ns = 0;
  std::optional<TimeNs> rebuild_ns;  ///< ec_repair: fail-stop -> rebuilt

  std::uint64_t events = 0;
  std::uint64_t epochs = 0;  ///< sharded, traced runs only
  std::uint64_t digest = 0;

  /// Per-layer metrics by name (traced runs fill the full set).
  std::map<std::string, double> layer;
  std::vector<HostSpans::Span> spans;
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v);

/// Run-fingerprint of simulated statistics: events, end time, per-node
/// completions, drops and the caller's extra counters.
std::uint64_t sim_digest(std::uint64_t events, TimeNs end_time,
                         const IoLedger& ledger, ebs::Cluster& cluster,
                         const std::vector<std::uint64_t>& extra);

/// Traced tail of every workload, after the simulation has drained: times
/// a repeat `Network::compute_routes()` when asked, reads every per-layer
/// metric into `r.layer` (utilizations over `sim_ns`), and keeps the spans.
void finish_traced(const RepConfig& cfg, ebs::Cluster& cluster,
                   const IoLedger& ledger, TimeNs sim_ns, HostSpans& spans,
                   RepResult& r);

/// Exact nearest-rank percentile of unsorted samples (copied, not mutated).
double percentile(std::vector<double> v, double q);

RepResult run_rack_fio(const RepConfig& cfg);
RepResult run_fleet_open(const RepConfig& cfg);
RepResult run_ec_repair(const RepConfig& cfg);

}  // namespace perfbench
