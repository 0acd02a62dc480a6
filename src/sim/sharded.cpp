#include "sim/sharded.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace repro::sim {

ShardedEngine::ShardedEngine(int shards, int threads, TimeNs lookahead)
    : threads_(threads < 1 ? 1 : threads), lookahead_(lookahead) {
  assert(shards >= 1);
  assert(lookahead_ > 0);
  owned_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    owned_.push_back(std::make_unique<Engine>());
    engines_.push_back(owned_.back().get());
  }
  outboxes_.resize(static_cast<std::size_t>(shards));
  for (auto& ob : outboxes_) {
    ob.to.resize(static_cast<std::size_t>(shards));
  }
}

ShardedEngine::ShardedEngine(Engine& only)
    : engines_{&only}, lookahead_(us(1)) {}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::set_lookahead(TimeNs l) {
  assert(l > 0);
  assert(!in_run_);
  lookahead_ = l;
}

std::uint64_t ShardedEngine::executed() const {
  std::uint64_t total = 0;
  for (const Engine* e : engines_) total += e->executed();
  return total;
}

std::size_t ShardedEngine::pending() const {
  std::size_t total = globals_.size();
  for (const Engine* e : engines_) total += e->pending();
  for (const auto& ob : outboxes_) {
    total += ob.globals.size();
    for (const auto& row : ob.to) total += row.size();
  }
  return total;
}

void ShardedEngine::post(int dst, TimeNs t, Callback fn) {
  assert(dst >= 0 && dst < shards());
  if (in_parallel_phase()) {
    // The conservative contract: a message generated inside an epoch may
    // not be needed before the epoch's end (its delay is >= the lookahead).
    // Checked in every build: a late message would silently reorder events.
    if (t < epoch_end_) {
      std::fprintf(stderr,
                   "ShardedEngine::post: cross-shard message at t=%lld ns is "
                   "inside the lookahead window ending at %lld ns (lookahead "
                   "%lld ns is larger than the minimum cross-shard delay)\n",
                   static_cast<long long>(t),
                   static_cast<long long>(epoch_end_),
                   static_cast<long long>(lookahead_));
      std::abort();
    }
    outboxes_[static_cast<std::size_t>(current_shard())]
        .to[static_cast<std::size_t>(dst)]
        .push_back({t, std::move(fn)});
    return;
  }
  engines_[static_cast<std::size_t>(dst)]->schedule_at(t, std::move(fn));
}

void ShardedEngine::post_global(Callback fn) {
  if (in_parallel_phase()) {
    outboxes_[static_cast<std::size_t>(current_shard())].globals.push_back(
        {TimeNs{-1}, std::move(fn)});
    return;
  }
  if (in_run_) {
    // Barrier phase (a global op posting another "immediate" one): run at
    // this barrier's instant, after the ops already queued for it.
    globals_.push({now_, next_global_seq_++, std::move(fn)});
    return;
  }
  fn();  // idle, or the one shard's own event: nothing else is running
}

void ShardedEngine::post_global_at(TimeNs t, Callback fn) {
  if (one_shard()) {
    engines_[0]->schedule_at(t, std::move(fn));
    return;
  }
  if (t < now_) t = now_;
  if (in_parallel_phase()) {
    outboxes_[static_cast<std::size_t>(current_shard())].globals.push_back(
        {t, std::move(fn)});
    return;
  }
  globals_.push({t, next_global_seq_++, std::move(fn)});
}

TimeNs ShardedEngine::lower_bound() const {
  TimeNs lb = globals_.empty() ? TimeNs{-1} : globals_.top().t;
  for (const Engine* e : engines_) {
    const TimeNs elb = e->next_lower_bound();
    if (elb >= 0 && (lb < 0 || elb < lb)) lb = elb;
  }
  return lb;
}

void ShardedEngine::advance_to(TimeNs target) {
  if (target <= now_) return;
  for (int s = 0; s < shards(); ++s) {
    ShardScope scope(s);
    engines_[static_cast<std::size_t>(s)]->run_until(target);
  }
  now_ = target;
  if (hook_) hook_(now_);
}

void ShardedEngine::worker_main(Team& team, int worker_index, int nthreads) {
  const int num_shards = shards();
  for (;;) {
    team.gate->arrive_and_wait();
    if (team.done.load(std::memory_order_acquire)) return;
    detail::tls_in_parallel = true;
    const TimeNs end = epoch_end_;
    for (int s = worker_index; s < num_shards; s += nthreads) {
      detail::tls_shard = s;
      Engine& e = *engines_[static_cast<std::size_t>(s)];
      e.bind_owner();
      e.run_until(end);
    }
    detail::tls_shard = 0;
    detail::tls_in_parallel = false;
    team.gate->arrive_and_wait();
  }
}

void ShardedEngine::spawn_team(Team& team, int nthreads) {
  team.gate = std::make_unique<std::barrier<>>(nthreads + 1);
  team.done.store(false, std::memory_order_relaxed);
  team.threads.reserve(static_cast<std::size_t>(nthreads));
  for (int w = 0; w < nthreads; ++w) {
    team.threads.emplace_back(
        [this, &team, w, nthreads] { worker_main(team, w, nthreads); });
  }
  team.running = true;
}

void ShardedEngine::shutdown_team(Team& team) {
  if (!team.running) return;
  team.done.store(true, std::memory_order_release);
  team.gate->arrive_and_wait();
  for (auto& t : team.threads) t.join();
  team.threads.clear();
  team.gate.reset();
  team.running = false;
}

void ShardedEngine::run_epoch(Team& team, int nthreads, TimeNs end) {
  epoch_end_ = end;
  if (nthreads <= 1) {
    // Same epoch structure, executed by the calling thread shard-by-shard.
    // tls_in_parallel is raised so cross-shard effects still go through the
    // mailboxes — direct scheduling here would assign destination-engine
    // sequence numbers mid-epoch and order equal-timestamp events
    // differently than the barrier merge does at T > 1.
    detail::tls_in_parallel = true;
    for (int s = 0; s < shards(); ++s) {
      detail::tls_shard = s;
      engines_[static_cast<std::size_t>(s)]->run_until(end);
    }
    detail::tls_shard = 0;
    detail::tls_in_parallel = false;
    return;
  }
  if (!team.running) spawn_team(team, nthreads);
  team.gate->arrive_and_wait();  // release the epoch
  team.gate->arrive_and_wait();  // all shards reached `end`
  // Between barriers the coordinator owns every engine (mailbox delivery,
  // global ops); re-bind for the debug-mode ownership checks.
  for (Engine* e : engines_) e->bind_owner();
}

void ShardedEngine::deliver_mailboxes(TimeNs barrier_time) {
  struct Incoming {
    TimeNs t;
    int src;
    std::uint32_t idx;
    Msg* msg;
  };
  std::vector<Incoming> items;
  const int num_shards = shards();
  for (int dst = 0; dst < num_shards; ++dst) {
    items.clear();
    for (int src = 0; src < num_shards; ++src) {
      auto& row = outboxes_[static_cast<std::size_t>(src)]
                      .to[static_cast<std::size_t>(dst)];
      for (std::uint32_t i = 0; i < row.size(); ++i) {
        items.push_back({row[i].t, src, i, &row[i]});
      }
    }
    if (items.empty()) continue;
    // The deterministic merge: (timestamp, source shard, per-pair sequence).
    // The destination engine's own seq-FIFO then preserves this order among
    // equal timestamps for the rest of the run.
    std::sort(items.begin(), items.end(),
              [](const Incoming& a, const Incoming& b) {
                if (a.t != b.t) return a.t < b.t;
                if (a.src != b.src) return a.src < b.src;
                return a.idx < b.idx;
              });
    ShardScope scope(dst);
    Engine& e = *engines_[static_cast<std::size_t>(dst)];
    for (auto& it : items) {
      assert(it.t >= barrier_time);
      e.schedule_at(it.t, std::move(it.msg->fn));
    }
  }
  (void)barrier_time;
  for (auto& ob : outboxes_) {
    for (auto& row : ob.to) row.clear();
  }
}

void ShardedEngine::flush_buffered_globals(TimeNs barrier_time) {
  for (auto& ob : outboxes_) {
    for (auto& g : ob.globals) {
      const TimeNs t = g.t < barrier_time ? barrier_time : g.t;
      globals_.push({t, next_global_seq_++, std::move(g.fn)});
    }
    ob.globals.clear();
  }
}

void ShardedEngine::run_globals(TimeNs limit) {
  while (!globals_.empty() && globals_.top().t <= limit) {
    // priority_queue::top() is const; the callback is move-only, so detach
    // it via const_cast before popping (the node is discarded right after).
    Callback fn = std::move(const_cast<GlobalOp&>(globals_.top()).fn);
    globals_.pop();
    fn();
  }
}

void ShardedEngine::run_loop(TimeNs target, bool drain) {
  assert(!in_run_ && "ShardedEngine::run is not reentrant");
  in_run_ = true;
  const int num_shards = shards();
  const int nthreads = threads_ < num_shards ? threads_ : num_shards;
  Team team;
  for (;;) {
    const TimeNs lb = lower_bound();
    if (lb < 0) {
      // Everything drained. In run_until mode still advance the clocks.
      if (!drain) advance_to(target);
      break;
    }
    if (!drain && lb > target) {
      advance_to(target);
      break;
    }
    const TimeNs start = lb > now_ ? lb : now_;
    TimeNs end = start + lookahead_;
    // Clamp the epoch so a barrier lands exactly on the next global
    // control operation — link flips and reconvergence keep exact times.
    if (!globals_.empty() && globals_.top().t < end) end = globals_.top().t;
    if (!drain && end > target) end = target;
    run_epoch(team, nthreads, end);
    deliver_mailboxes(end);
    flush_buffered_globals(end);
    run_globals(end);
    now_ = end;
    if (hook_) hook_(now_);
  }
  shutdown_team(team);
  in_run_ = false;
}

void ShardedEngine::run() {
  if (one_shard()) {
    engines_[0]->run();
    return;
  }
  run_loop(0, /*drain=*/true);
}

void ShardedEngine::run_until(TimeNs t) {
  if (one_shard()) {
    engines_[0]->run_until(t);
    return;
  }
  run_loop(t, /*drain=*/false);
}

}  // namespace repro::sim
