// Sharded parallel discrete-event engine.
//
// The fleet is partitioned into node-affine shards: every component of a
// node (CPU, PCIe, SSD, NIC) and its rack-local switches live on one home
// shard, each shard owning a private single-threaded `Engine`. Shards
// advance together in conservative epochs: with lookahead L = the minimum
// cross-shard link propagation delay, every shard can safely execute all
// events in [start, start + L] without seeing input from its peers, because
// any cross-shard effect generated in that window arrives at t >= start + L.
// At the epoch barrier the coordinating thread delivers buffered cross-shard
// messages — sorted by (timestamp, source shard, per-pair sequence) — and
// runs globally-serialized control operations (link flips, route
// recomputation), then the next epoch begins.
//
// Determinism contract: the epoch structure (start/end instants, delivery
// and global-op order) is a pure function of the event timeline, the shard
// count and the lookahead — NEVER of the thread count. Threads only decide
// which OS thread executes a given shard's epoch (shard s runs on worker
// s % T), so the same seed produces bit-identical metrics, traces and chaos
// signatures at 1, 2 or N threads. tests/determinism_test.cpp enforces this
// with a thread-count sweep.
//
// One shard is the rack-scale fleet, and it has no epochs: `post` and
// `post_global_at` schedule straight onto the shard's engine, `post_global`
// runs at once (nothing else can be running), `now()` is that engine's
// clock, and `run`/`run_until` drive the engine directly. So a plain
// `Engine` adopted as the one shard runs exactly as if driven by hand, and
// every layer above holds this one engine type whatever the fleet's size.
#pragma once

#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "common/small_fn.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sim/shard_context.h"

namespace repro::sim {

class ShardedEngine {
 public:
  /// Called once per epoch barrier with the (aligned) epoch-end instant,
  /// on the coordinating thread while all workers are quiescent. The
  /// observability sampler rides this hook in multi-shard runs; one shard
  /// has no barriers, so there it never fires.
  using BarrierHook = SmallFn<void(TimeNs), 48>;

  /// `threads` > shards is clamped; `threads` <= 1 runs every epoch on the
  /// calling thread (same epoch structure, so same results).
  explicit ShardedEngine(int shards, int threads = 1,
                         TimeNs lookahead = us(1));
  /// Adopts `only` (not owned) as the single shard.
  explicit ShardedEngine(Engine& only);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;
  ~ShardedEngine();

  int shards() const { return static_cast<int>(engines_.size()); }
  int threads() const { return threads_; }
  TimeNs lookahead() const { return lookahead_; }

  /// Must be called before any events run. The caller (the cluster builder)
  /// is responsible for `l` being <= the minimum cross-shard propagation
  /// delay; `post` aborts on a message that breaks it.
  void set_lookahead(TimeNs l);

  Engine& shard(int s) { return *engines_[static_cast<std::size_t>(s)]; }
  const Engine& shard(int s) const {
    return *engines_[static_cast<std::size_t>(s)];
  }
  /// The engine of the shard the calling thread is currently executing.
  Engine& home() { return shard(current_shard()); }

  /// Aligned fleet clock: every shard's engine sits at this instant between
  /// runs and at epoch barriers. One shard: that engine's clock.
  TimeNs now() const { return one_shard() ? engines_[0]->now() : now_; }
  std::uint64_t executed() const;
  std::size_t pending() const;

  /// Schedules `fn` at absolute time `t` on shard `dst`'s engine. Inside an
  /// epoch this buffers into the per-(source, destination) mailbox and is
  /// delivered at the barrier in (t, source shard, sequence) order; the
  /// conservative contract requires t >= the current epoch's end, i.e. the
  /// underlying delay must be >= the lookahead; a message that breaks it
  /// aborts the process (in every build type). Outside a run, and always
  /// with one shard, it schedules directly.
  void post(int dst, TimeNs t, Callback fn);

  /// Runs `fn` on the coordinating thread with every shard quiescent: at
  /// the next epoch barrier when posted from inside an epoch, immediately
  /// when posted while idle or with one shard. For shared-fabric mutations
  /// (link state, routing tables) that individual shards must never touch
  /// mid-epoch.
  void post_global(Callback fn);

  /// Timed variant: `fn` runs at the first epoch barrier with time >= `t`,
  /// and the epoch layout is clamped so that a barrier lands exactly at `t`
  /// (control operations keep their exact timestamps). One shard: an
  /// ordinary event at `t` on its engine.
  void post_global_at(TimeNs t, Callback fn);

  /// Installs the (single) barrier hook. Pass an empty hook to clear.
  void set_barrier_hook(BarrierHook hook) { hook_ = std::move(hook); }

  /// Runs all shards until their queues, the cross-shard mailboxes and the
  /// global-operation queue drain. One shard: `Engine::run`, no epochs.
  void run();

  /// Runs everything with timestamp <= `t`, then aligns all clocks to `t`.
  /// One shard: `Engine::run_until`, no epochs.
  void run_until(TimeNs t);

 private:
  struct Msg {
    TimeNs t;
    Callback fn;
  };
  struct BufferedGlobal {
    TimeNs t;  // -1 = "at this epoch's barrier"
    Callback fn;
  };
  // Per-source-shard outbox; cache-line-aligned so concurrent workers never
  // false-share. Row `to[dst]` is written only by the owning worker during
  // an epoch and drained only by the coordinator at the barrier (an SPSC
  // handoff sequenced by the epoch barrier itself).
  struct alignas(64) Outbox {
    std::vector<std::vector<Msg>> to;
    std::vector<BufferedGlobal> globals;
  };
  struct GlobalOp {
    TimeNs t;
    std::uint64_t seq;
    Callback fn;
  };
  struct GlobalOpLater {
    bool operator()(const GlobalOp& a, const GlobalOp& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };
  struct Team {
    std::unique_ptr<std::barrier<>> gate;
    std::vector<std::thread> threads;
    std::atomic<bool> done{false};
    bool running = false;
  };

  void run_loop(TimeNs target, bool drain);
  void run_epoch(Team& team, int nthreads, TimeNs end);
  void worker_main(Team& team, int worker_index, int nthreads);
  void deliver_mailboxes(TimeNs barrier_time);
  void flush_buffered_globals(TimeNs barrier_time);
  void run_globals(TimeNs limit);
  void advance_to(TimeNs target);
  void spawn_team(Team& team, int nthreads);
  void shutdown_team(Team& team);
  TimeNs lower_bound() const;
  bool one_shard() const { return engines_.size() == 1; }

  std::vector<std::unique_ptr<Engine>> owned_;  // empty when adopted
  std::vector<Engine*> engines_;
  std::vector<Outbox> outboxes_;
  std::priority_queue<GlobalOp, std::vector<GlobalOp>, GlobalOpLater>
      globals_;
  std::uint64_t next_global_seq_ = 0;
  BarrierHook hook_;
  int threads_ = 1;
  TimeNs lookahead_ = 0;
  TimeNs now_ = 0;
  TimeNs epoch_end_ = 0;  // written by coordinator, read by workers; the
                          // barrier sequences every access
  bool in_run_ = false;
};

}  // namespace repro::sim
