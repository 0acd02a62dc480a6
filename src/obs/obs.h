// Facade bundling the three observability pieces — metric registry,
// sim-time sampler, span tracer — behind one config and one pointer.
//
// A `Cluster` (or a test) owns an `Obs` and hands a non-owning pointer to
// `net::Network`; everything fabric-adjacent reaches it from there. A null
// pointer or `enabled=false` yields the same simulation bit-for-bit — the
// perturbation-freedom invariant enforced by tests/determinism_test.cpp.
#pragma once

#include "common/units.h"
#include "obs/registry.h"
#include "obs/series.h"
#include "obs/trace.h"
#include "sim/sharded.h"

namespace repro::sim {
class Engine;
}

namespace repro::obs {

struct ObsConfig {
  bool enabled = true;
  /// Record causal spans (requires `enabled`).
  bool trace = true;
  /// Span flight-recorder capacity (records; oldest overwritten).
  std::size_t trace_capacity = 1 << 16;
  /// Time-series sample period; <= 0 disables sampling.
  TimeNs sample_interval = us(100);
  /// Points retained per series ring.
  std::size_t series_capacity = 4096;
};

class Obs {
 public:
  explicit Obs(ObsConfig cfg = {})
      : cfg_(cfg),
        registry_(cfg.enabled),
        tracer_(cfg.enabled && cfg.trace, cfg.trace_capacity),
        sampler_(registry_, cfg.series_capacity) {}
  Obs(const Obs&) = delete;
  Obs& operator=(const Obs&) = delete;

  bool enabled() const { return cfg_.enabled; }
  const ObsConfig& config() const { return cfg_; }

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  Sampler& sampler() { return sampler_; }
  const Sampler& sampler() const { return sampler_; }

  /// Starts periodic gauge sampling on `engine` (out-of-band probe; adds no
  /// engine events). Call once after registering gauges is fine too —
  /// late-registered entries join subsequent samples.
  void attach(sim::Engine& engine) {
    sampler_.attach(engine, cfg_.sample_interval);
  }

  /// Fleet variant: one shard samples through its engine's probe (bit
  /// identical to attach(Engine&)); multi-shard engines sample on the
  /// epoch-barrier hook and split the tracer into per-shard rings.
  void attach(sim::ShardedEngine& se) {
    tracer_.set_shards(se.shards());
    if (se.shards() == 1) {
      sampler_.attach(se.shard(0), cfg_.sample_interval);
    } else {
      sampler_.attach(se, cfg_.sample_interval);
    }
  }

 private:
  ObsConfig cfg_;
  Registry registry_;
  Tracer tracer_;
  Sampler sampler_;
};

}  // namespace repro::obs
