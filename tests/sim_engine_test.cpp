#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/cpu.h"
#include "sim/pcie.h"
#include "sim/sharded.h"

namespace repro::sim {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.at(us(30), [&] { order.push_back(3); });
  eng.at(us(10), [&] { order.push_back(1); });
  eng.at(us(20), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), us(30));
}

TEST(Engine, EqualTimestampsRunInScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.at(us(5), [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, AfterIsRelativeToNow) {
  Engine eng;
  TimeNs fired_at = -1;
  eng.at(us(10), [&] { eng.after(us(5), [&] { fired_at = eng.now(); }); });
  eng.run();
  EXPECT_EQ(fired_at, us(15));
}

TEST(Engine, PastTimesClampToNow) {
  Engine eng;
  TimeNs fired_at = -1;
  eng.at(us(10), [&] { eng.at(us(3), [&] { fired_at = eng.now(); }); });
  eng.run();
  EXPECT_EQ(fired_at, us(10));
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine eng;
  TimeNs fired_at = -1;
  eng.after(-5, [&] { fired_at = eng.now(); });
  eng.run();
  EXPECT_EQ(fired_at, 0);
}

TEST(Engine, CancelPreventsExecution) {
  Engine eng;
  bool fired = false;
  const TimerId id = eng.schedule_at(us(10), [&] { fired = true; });
  EXPECT_TRUE(eng.cancel(id));
  eng.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelAfterFireReturnsFalseish) {
  Engine eng;
  const TimerId id = eng.schedule_at(us(1), [] {});
  eng.run();
  // Cancel of an already-fired id must not prevent anything or crash;
  // a second cancel of the same id is a no-op.
  eng.cancel(id);
  bool fired = false;
  eng.schedule_at(us(2), [&] { fired = true; });
  eng.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, CancelAfterFireDoesNotCorruptPending) {
  // Regression: the old scheduler counted canceled tombstones separately
  // and a cancel() after the event had already fired made pending()
  // underflow to a huge value.
  Engine eng;
  const TimerId id = eng.schedule_at(us(1), [] {});
  EXPECT_EQ(eng.pending(), 1u);
  eng.run();
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_FALSE(eng.cancel(id));
  EXPECT_EQ(eng.pending(), 0u);  // was 2^64-1 with the tombstone counter
  eng.schedule_at(us(2), [] {});
  EXPECT_EQ(eng.pending(), 1u);
}

TEST(Engine, PendingTracksScheduleCancelFire) {
  Engine eng;
  std::vector<TimerId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(eng.schedule_at(us(10 + i), [] {}));
  }
  EXPECT_EQ(eng.pending(), 8u);
  EXPECT_TRUE(eng.cancel(ids[2]));
  EXPECT_TRUE(eng.cancel(ids[5]));
  EXPECT_FALSE(eng.cancel(ids[5]));  // double cancel
  EXPECT_EQ(eng.pending(), 6u);
  eng.run_until(us(12));
  EXPECT_EQ(eng.pending(), 4u);  // 13, 14, 16, 17 left (12 and 15 canceled)
  eng.run();
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(Engine, StaleIdAfterSlotReuseDoesNotCancelNewTimer) {
  // A fired timer's slot is recycled; the old TimerId must not be able to
  // cancel whatever new timer now occupies that slot.
  Engine eng;
  const TimerId old_id = eng.schedule_at(us(1), [] {});
  eng.run();
  bool fired = false;
  // The freed node is reused by the next schedule (LIFO free list).
  eng.schedule_at(us(5), [&] { fired = true; });
  EXPECT_FALSE(eng.cancel(old_id));
  eng.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, FifoAcrossSourcesAtEqualTimestamps) {
  // Events scheduled from different "sources" (top level, callbacks, at()
  // vs after()) for the same instant fire in global schedule order.
  Engine eng;
  std::vector<int> order;
  eng.at(us(10), [&] { order.push_back(0); });
  eng.schedule_at(us(10), [&] { order.push_back(1); });
  eng.at(us(5), [&] {
    eng.at(us(10), [&] { order.push_back(2); });
    eng.after(us(5), [&] { order.push_back(3); });
  });
  eng.at(us(10), [&] { order.push_back(4); });
  eng.run();
  // 0, 1, 4 were scheduled before the run; 2 and 3 at us(5) during it —
  // FIFO within a timestamp is global schedule order, not source order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 4, 2, 3}));
}

TEST(Engine, FifoPreservedAcrossCancellations) {
  Engine eng;
  std::vector<int> order;
  std::vector<TimerId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(eng.schedule_at(us(7), [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 16; i += 2) eng.cancel(ids[static_cast<size_t>(i)]);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 7, 9, 11, 13, 15}));
}

TEST(Engine, LongDelaysCascadeToExactTimes) {
  // Spread events across every level of the timer hierarchy: each must
  // fire at exactly its scheduled instant even after multiple cascades.
  Engine eng;
  const std::vector<TimeNs> times = {
      1,       63,        64,        65,         4095,         4096,
      100000,  1 << 20,   1 << 26,   TimeNs{1} << 32, TimeNs{1} << 40,
      seconds(1), seconds(100), seconds(3600)};
  std::vector<TimeNs> fired;
  for (TimeNs t : times) {
    eng.at(t, [&fired, &eng] { fired.push_back(eng.now()); });
  }
  eng.run();
  std::vector<TimeNs> expect = times;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(fired, expect);
}

TEST(Engine, RandomizedScheduleCancelMatchesModel) {
  // Drive the wheel with a deterministic random mix of schedules and
  // cancels and check it against a straightforward model: every surviving
  // event fires exactly once, in nondecreasing time order, FIFO within a
  // timestamp, and the clock ends at the latest fired time.
  Engine eng;
  std::mt19937 rng(12345);
  std::uniform_int_distribution<TimeNs> when(0, 100000);
  struct Rec {
    TimerId id;
    TimeNs t;
    std::uint64_t seq;
    bool canceled = false;
  };
  std::vector<Rec> recs;
  std::vector<std::pair<TimeNs, std::uint64_t>> fired;
  std::uint64_t seq = 0;
  for (int i = 0; i < 5000; ++i) {
    if (!recs.empty() && rng() % 4 == 0) {
      Rec& victim = recs[rng() % recs.size()];
      const bool want = !victim.canceled;
      EXPECT_EQ(eng.cancel(victim.id), want);
      victim.canceled = true;
    } else {
      const TimeNs t = when(rng);
      const std::uint64_t s = seq++;
      recs.push_back(
          {eng.schedule_at(t, [&fired, t, s] { fired.emplace_back(t, s); }),
           t, s});
    }
  }
  std::size_t live = 0;
  for (const auto& r : recs) live += !r.canceled;
  EXPECT_EQ(eng.pending(), live);
  eng.run();

  std::vector<std::pair<TimeNs, std::uint64_t>> expect;
  for (const auto& r : recs) {
    if (!r.canceled) expect.emplace_back(r.t, r.seq);
  }
  std::stable_sort(expect.begin(), expect.end());  // time, then seq = FIFO
  EXPECT_EQ(fired, expect);
  EXPECT_EQ(eng.pending(), 0u);
  if (!expect.empty()) {
    EXPECT_EQ(eng.now(), expect.back().first);
  }
}

TEST(Engine, MoveOnlyCallbacksSupported) {
  // The packet path schedules lambdas owning move-only pooled packets;
  // the engine's callback type must accept move-only captures.
  Engine eng;
  auto token = std::make_unique<int>(41);
  int seen = 0;
  eng.at(us(1), [&seen, token = std::move(token)] { seen = *token + 1; });
  eng.run();
  EXPECT_EQ(seen, 42);
}

TEST(Engine, CancelUnknownIdIsFalse) {
  Engine eng;
  EXPECT_FALSE(eng.cancel(0));
  EXPECT_FALSE(eng.cancel(9999));
}

TEST(Engine, RunUntilAdvancesClockExactly) {
  Engine eng;
  int count = 0;
  eng.at(us(10), [&] { ++count; });
  eng.at(us(20), [&] { ++count; });
  eng.at(us(30), [&] { ++count; });
  eng.run_until(us(20));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(eng.now(), us(20));
  eng.run();
  EXPECT_EQ(count, 3);
}

TEST(Engine, RunUntilWithOnlyCanceledEvents) {
  Engine eng;
  const TimerId id = eng.schedule_at(us(5), [] { FAIL(); });
  eng.cancel(id);
  eng.run_until(us(10));
  EXPECT_EQ(eng.now(), us(10));
}

TEST(Engine, StopInterruptsRun) {
  Engine eng;
  int count = 0;
  eng.at(us(1), [&] {
    ++count;
    eng.stop();
  });
  eng.at(us(2), [&] { ++count; });
  eng.run();
  EXPECT_EQ(count, 1);
  eng.run();
  EXPECT_EQ(count, 2);
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine eng;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) eng.after(us(1), chain);
  };
  eng.after(us(1), chain);
  eng.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(eng.now(), us(100));
  EXPECT_EQ(eng.executed(), 100u);
}

TEST(CpuCore, SerializesWork) {
  Engine eng;
  CpuCore core(eng, "c0");
  std::vector<TimeNs> done;
  eng.at(0, [&] {
    core.run(us(10), [&] { done.push_back(eng.now()); });
    core.run(us(5), [&] { done.push_back(eng.now()); });
  });
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], us(10));
  EXPECT_EQ(done[1], us(15));  // queued behind the first item
  EXPECT_EQ(core.busy_ns(), us(15));
}

TEST(CpuCore, IdleGapsDoNotAccumulateBusy) {
  Engine eng;
  CpuCore core(eng, "c0");
  eng.at(0, [&] { core.run(us(1)); });
  eng.at(us(100), [&] { core.run(us(1)); });
  eng.run();
  EXPECT_EQ(core.busy_ns(), us(2));
  EXPECT_NEAR(core.utilization(), 2.0 / 101.0, 1e-6);
}

TEST(CpuCore, BacklogReflectsQueuedWork) {
  Engine eng;
  CpuCore core(eng, "c0");
  eng.at(0, [&] {
    core.run(us(10));
    EXPECT_EQ(core.backlog(), us(10));
  });
  eng.run();
  EXPECT_EQ(core.backlog(), 0);
}

TEST(CpuCore, ZeroAndNegativeCostAreInstant) {
  Engine eng;
  CpuCore core(eng, "c0");
  bool fired = false;
  eng.at(us(3), [&] { core.run(-7, [&] { fired = true; }); });
  eng.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(core.busy_ns(), 0);
}

TEST(CpuPool, ByHashPinsAffinity) {
  Engine eng;
  CpuPool pool(eng, "p", 4, CpuPool::Dispatch::kByHash);
  // Same affinity key must always land on the same core: submit many items
  // with one key and check exactly one core accumulated busy time.
  eng.at(0, [&] {
    for (int i = 0; i < 20; ++i) pool.submit(42, us(1));
  });
  eng.run();
  int busy_cores = 0;
  for (int i = 0; i < pool.size(); ++i) {
    busy_cores += (pool.core(i).busy_ns() > 0);
  }
  EXPECT_EQ(busy_cores, 1);
  EXPECT_EQ(pool.total_busy_ns(), us(20));
}

TEST(CpuPool, ByHashSpreadsDistinctKeys) {
  Engine eng;
  CpuPool pool(eng, "p", 4, CpuPool::Dispatch::kByHash);
  eng.at(0, [&] {
    for (std::uint64_t k = 0; k < 64; ++k) pool.submit(k, us(1));
  });
  eng.run();
  int busy_cores = 0;
  for (int i = 0; i < pool.size(); ++i) {
    busy_cores += (pool.core(i).busy_ns() > 0);
  }
  EXPECT_EQ(busy_cores, 4);
}

TEST(CpuPool, LeastLoadedBalances) {
  Engine eng;
  CpuPool pool(eng, "p", 2, CpuPool::Dispatch::kLeastLoaded);
  eng.at(0, [&] {
    pool.submit(0, us(10));
    pool.submit(0, us(10));
    pool.submit(0, us(10));
  });
  eng.run();
  // Third item should queue behind whichever core frees first: total span
  // 20us, not 30us.
  EXPECT_EQ(eng.now(), us(20));
}

TEST(CpuPool, CrossCoreOverheadCharged) {
  Engine eng;
  CpuPool pool(eng, "p", 2, CpuPool::Dispatch::kLeastLoaded, us(2));
  eng.at(0, [&] { pool.submit(0, us(10)); });
  eng.run();
  EXPECT_EQ(pool.total_busy_ns(), us(12));
}

TEST(CpuPool, ConsumedCoresMetric) {
  Engine eng;
  CpuPool pool(eng, "p", 4, CpuPool::Dispatch::kByHash);
  eng.at(0, [&] {
    for (std::uint64_t k = 0; k < 4; ++k) pool.submit(k, ms(1));
  });
  eng.run_until(ms(1));
  // 4 cores busy the whole time -> consumed ~4.
  EXPECT_NEAR(pool.consumed_cores(ms(1)), 4.0, 0.05);
}

TEST(CpuPool, ResetAccountingExcludesWarmup) {
  Engine eng;
  CpuPool pool(eng, "p", 1, CpuPool::Dispatch::kByHash);
  eng.at(0, [&] { pool.submit(0, us(100)); });
  eng.run();
  pool.reset_accounting();
  EXPECT_EQ(pool.total_busy_ns(), 0);
  eng.at(eng.now(), [&] { pool.submit(0, us(7)); });
  eng.run();
  EXPECT_EQ(pool.total_busy_ns(), us(7));
}

TEST(Pcie, TransferTakesSerializationPlusLatency) {
  Engine eng;
  // 100 Gbps, 1us per-transfer latency; 12500 bytes = 1us serialization.
  PcieChannel pcie(eng, "pcie", gbps(100), us(1));
  TimeNs done_at = -1;
  eng.at(0, [&] { pcie.transfer(12500, [&] { done_at = eng.now(); }); });
  eng.run();
  EXPECT_EQ(done_at, us(2));
  EXPECT_EQ(pcie.bytes_transferred(), 12500u);
}

TEST(Pcie, BackToBackTransfersQueue) {
  Engine eng;
  PcieChannel pcie(eng, "pcie", gbps(100), 0);
  std::vector<TimeNs> done;
  eng.at(0, [&] {
    pcie.transfer(12500, [&] { done.push_back(eng.now()); });
    pcie.transfer(12500, [&] { done.push_back(eng.now()); });
  });
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], us(1));
  EXPECT_EQ(done[1], us(2));
  EXPECT_GT(pcie.goodput(), 0.0);
}

TEST(Pcie, GoodputCeiling) {
  Engine eng;
  PcieChannel pcie(eng, "pcie", gbps(10), 0);
  eng.at(0, [&] {
    for (int i = 0; i < 1000; ++i) pcie.transfer(125000);
  });
  eng.run();
  // 1000 * 125KB at 10 Gbps should take 100 ms -> goodput pinned at 10G.
  EXPECT_NEAR(pcie.goodput() / 1e9, 10.0, 0.1);
}

// A cross-shard message posted at exactly `epoch start + lookahead` sits on
// the conservative boundary: it is the earliest instant the contract allows,
// and it must land *after* the destination shard's local events at the same
// timestamp (locals run inside the epoch, the message is delivered at the
// barrier). Both facts must be thread-count independent.
TEST(ShardedEngine, CrossShardAtExactLookaheadBoundary) {
  for (int threads : {1, 2}) {
    ShardedEngine se(2, threads, us(1));
    std::vector<std::pair<int, TimeNs>> order;  // only shard 1 writes
    se.shard(1).at(us(1), [&] { order.push_back({1, se.shard(1).now()}); });
    se.shard(0).at(0, [&] {
      se.post(1, us(1), [&] { order.push_back({2, se.shard(1).now()}); });
    });
    se.run();
    ASSERT_EQ(order.size(), 2u) << "threads " << threads;
    EXPECT_EQ(order[0], (std::pair<int, TimeNs>{1, us(1)}));
    EXPECT_EQ(order[1], (std::pair<int, TimeNs>{2, us(1)}));
    EXPECT_GE(se.now(), us(1));  // drain runs the delivery epoch to its end
  }
}

// The conservative contract holds in every build type: a cross-shard
// message that would land inside the current epoch aborts the run with a
// message instead of silently reordering events.
TEST(ShardedEngineDeathTest, PostInsideLookaheadWindowAborts) {
  EXPECT_DEATH(
      {
        ShardedEngine se(2, 1, us(1));
        se.shard(0).at(0, [&] { se.post(1, ns(500), [] {}); });
        se.run();
      },
      "inside the lookahead window");
}

// One shard has no epochs: an adopted engine runs exactly as if driven by
// hand. Control operations run at once or are ordinary events, and the
// fleet clock is the engine's own, never rounded up to an epoch end.
TEST(ShardedEngine, OneShardDrivesItsEngineDirectly) {
  Engine eng;
  ShardedEngine se(eng);
  EXPECT_EQ(&se.shard(0), &eng);
  std::vector<int> order;
  eng.at(ns(300), [&] {
    order.push_back(1);
    se.post_global([&] { order.push_back(2); });
    se.post_global_at(ns(400), [&] { order.push_back(3); });
  });
  se.run_until(ns(350));
  EXPECT_EQ(se.now(), ns(350));
  EXPECT_EQ(eng.now(), ns(350));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(se.pending(), 1u);
  se.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(se.now(), ns(400));
  EXPECT_EQ(se.executed(), 2u);
}

// Zero-delay same-shard self-messages never cross the mailbox: an event that
// schedules onto its own engine at the current instant runs later in the
// same epoch, before any later-timestamped work, at any thread count.
TEST(ShardedEngine, ZeroDelaySameShardSelfMessage) {
  for (int threads : {1, 2}) {
    ShardedEngine se(2, threads, us(1));
    std::vector<std::pair<int, TimeNs>> order;  // only shard 0 writes
    se.shard(0).at(ns(500), [&] {
      order.push_back({1, se.shard(0).now()});
      se.shard(0).at(se.shard(0).now(),
                     [&] { order.push_back({2, se.shard(0).now()}); });
    });
    se.shard(0).at(ns(700), [&] { order.push_back({3, se.shard(0).now()}); });
    se.run();
    ASSERT_EQ(order.size(), 3u) << "threads " << threads;
    EXPECT_EQ(order[0], (std::pair<int, TimeNs>{1, ns(500)}));
    EXPECT_EQ(order[1], (std::pair<int, TimeNs>{2, ns(500)}));
    EXPECT_EQ(order[2], (std::pair<int, TimeNs>{3, ns(700)}));
  }
}

// Randomized three-shard traffic: every shard runs a burster that picks a
// pseudo-random peer, posts a burst of sequenced messages (per-pair-monotone
// timestamps), and reschedules itself with jitter. The delivery log at each
// destination must (a) preserve per-(source, destination) FIFO order and
// (b) be bit-identical at 1, 2 and 3 worker threads.
TEST(ShardedEngine, RandomizedThreeShardFifoPreservation) {
  struct Ctx {
    ShardedEngine* se = nullptr;
    std::array<std::vector<std::uint64_t>, 3> recv;       // writer: dst shard
    std::array<std::array<std::uint32_t, 3>, 3> seq{};    // writer: src shard
    std::array<std::array<TimeNs, 3>, 3> last_t{};        // writer: src shard
    std::array<std::mt19937_64, 3> rng;
    std::array<int, 3> rounds_left{};
  };
  auto encode = [](int src, std::uint32_t seq) {
    return (static_cast<std::uint64_t>(src) << 32) | seq;
  };

  auto run = [&](int threads) {
    auto ctx = std::make_shared<Ctx>();
    ShardedEngine se(3, threads, us(1));
    ctx->se = &se;
    for (int s = 0; s < 3; ++s) {
      ctx->rng[static_cast<std::size_t>(s)].seed(0x5EEDull + s);
      ctx->rounds_left[static_cast<std::size_t>(s)] = 25;
    }
    auto burst = std::make_shared<std::function<void(int)>>();
    *burst = [ctx, burst, encode](int src) {
      ShardedEngine& eng = *ctx->se;
      Engine& home = eng.shard(src);
      auto& rng = ctx->rng[static_cast<std::size_t>(src)];
      const int dst = (src + 1 + static_cast<int>(rng() % 2)) % 3;
      const int count = 1 + static_cast<int>(rng() % 4);
      // Per-pair-monotone send times: FIFO is only promised for messages a
      // source emits in nondecreasing timestamp order, like a real wire.
      TimeNs t = home.now() + eng.lookahead() +
                 static_cast<TimeNs>(rng() % 3000);
      t = std::max(t, ctx->last_t[static_cast<std::size_t>(src)]
                                 [static_cast<std::size_t>(dst)]);
      ctx->last_t[static_cast<std::size_t>(src)]
                 [static_cast<std::size_t>(dst)] = t;
      for (int k = 0; k < count; ++k) {
        const std::uint64_t payload =
            encode(src, ctx->seq[static_cast<std::size_t>(src)]
                                [static_cast<std::size_t>(dst)]++);
        eng.post(dst, t, [ctx, dst, payload] {
          ctx->recv[static_cast<std::size_t>(dst)].push_back(payload);
        });
      }
      if (--ctx->rounds_left[static_cast<std::size_t>(src)] > 0) {
        home.after(ns(500) + static_cast<TimeNs>(rng() % 2000),
                   [burst, src] { (*burst)(src); });
      }
    };
    for (int s = 0; s < 3; ++s) {
      se.shard(s).at(ns(100 * s), [burst, s] { (*burst)(s); });
    }
    se.run();
    ctx->se = nullptr;
    *burst = nullptr;  // the closure holds `burst` itself: break the cycle
    return ctx;
  };

  const auto a = run(1);
  const auto b = run(2);
  const auto c = run(3);
  std::uint64_t total = 0;
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(a->recv[d], b->recv[d]) << "dst " << d << " @2 threads";
    EXPECT_EQ(a->recv[d], c->recv[d]) << "dst " << d << " @3 threads";
    // FIFO per (src, dst): each source's sequence numbers at this
    // destination appear exactly in send order, no gaps, no reordering.
    std::array<std::uint32_t, 3> next{};
    for (std::uint64_t p : a->recv[d]) {
      const auto src = static_cast<std::size_t>(p >> 32);
      const auto seq = static_cast<std::uint32_t>(p);
      ASSERT_EQ(seq, next[src]++) << "dst " << d << " src " << src;
      ++total;
    }
  }
  EXPECT_GT(total, 100u);  // the sweep actually generated traffic
}

}  // namespace
}  // namespace repro::sim
