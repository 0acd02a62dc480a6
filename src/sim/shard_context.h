// Thread-local shard context for sharded (parallel) simulation.
//
// Every simulation thread carries the id of the shard whose events it is
// currently executing. One-shard runs never touch it and always see
// shard 0. The context is what lets shard-agnostic call sites
// (`Network::engine()`, `Network::rng()`, `Network::make_packet()`, the obs
// counter scratch slot, the tracer ring) route to per-shard state without
// threading a shard id through every signature in the simulator.
//
// The context is deliberately header-only (inline thread_local): it must be
// readable from every layer — common, sim, net, obs — without creating a
// link-order dependency.
#pragma once

namespace repro::sim {

namespace detail {
/// Shard whose events the current thread is executing. 0 outside any
/// multi-shard run (a one-shard fleet is "shard 0 everywhere").
inline thread_local int tls_shard = 0;
/// True while the current thread is inside a ShardedEngine parallel phase
/// (i.e. cross-shard effects must go through mailboxes, not direct calls).
inline thread_local bool tls_in_parallel = false;
}  // namespace detail

/// The shard the calling thread is currently executing for.
inline int current_shard() { return detail::tls_shard; }

/// True when called from inside a parallel epoch (worker context).
inline bool in_parallel_phase() { return detail::tls_in_parallel; }

/// RAII shard context, used on the *construction* path: building a device
/// or node under `ShardScope(s)` makes every construction-time draw (ECMP
/// salts, component RNG forks) and every captured `engine()` reference
/// resolve to shard `s`'s state.
class ShardScope {
 public:
  explicit ShardScope(int shard) : prev_(detail::tls_shard) {
    detail::tls_shard = shard;
  }
  ~ShardScope() { detail::tls_shard = prev_; }
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  int prev_;
};

}  // namespace repro::sim
