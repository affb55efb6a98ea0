// Unit tests for the discrete-event simulation kernel: clock/event
// ordering, coroutine tasks, notifiers, RNG determinism, and stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/frame_pool.hpp"
#include "sim/notifier.hpp"
#include "sim/random.hpp"
#include "sim/seq_window.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace heron::sim {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(us(1), 1'000);
  EXPECT_EQ(ms(1), 1'000'000);
  EXPECT_EQ(sec(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_us(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_ms(2'500'000), 2.5);
  EXPECT_DOUBLE_EQ(to_sec(kNanosPerSec), 1.0);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.schedule(100, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(50, [] {}), std::logic_error);
}

TEST(Simulator, RunUntilLeavesLaterEventsQueued) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, NestedSchedulingFromEvent) {
  Simulator sim;
  Nanos inner_time = -1;
  sim.schedule(10, [&] { sim.schedule(5, [&] { inner_time = sim.now(); }); });
  sim.run();
  EXPECT_EQ(inner_time, 15);
}

TEST(Task, SleepAdvancesVirtualTime) {
  Simulator sim;
  Nanos woke_at = -1;
  sim.spawn([](Simulator& s, Nanos& woke) -> Task<void> {
    co_await s.sleep(us(5));
    woke = s.now();
  }(sim, woke_at));
  sim.run();
  EXPECT_EQ(woke_at, us(5));
}

TEST(Task, NestedAwaitReturnsValue) {
  Simulator sim;
  int result = 0;

  struct Helper {
    static Task<int> leaf(Simulator& s) {
      co_await s.sleep(10);
      co_return 21;
    }
    static Task<int> mid(Simulator& s) {
      const int a = co_await leaf(s);
      const int b = co_await leaf(s);
      co_return a + b;
    }
  };

  sim.spawn([](Simulator& s, int& out) -> Task<void> {
    out = co_await Helper::mid(s);
  }(sim, result));
  sim.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(sim.now(), 20);
}

TEST(Task, ExceptionPropagatesThroughAwait) {
  Simulator sim;
  bool caught = false;

  struct Helper {
    static Task<void> boom(Simulator& s) {
      co_await s.sleep(1);
      throw std::runtime_error("boom");
    }
  };

  sim.spawn([](Simulator& s, bool& flag) -> Task<void> {
    try {
      co_await Helper::boom(s);
    } catch (const std::runtime_error&) {
      flag = true;
    }
  }(sim, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Task, RootTaskExceptionSurfacesFromRun) {
  Simulator sim;
  sim.spawn([](Simulator& s) -> Task<void> {
    co_await s.sleep(1);
    throw std::runtime_error("unhandled");
  }(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Task, ManyConcurrentTasksInterleaveDeterministically) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.spawn([](Simulator& s, std::vector<int>& ord, int id) -> Task<void> {
      for (int k = 0; k < 3; ++k) {
        co_await s.sleep(10 * (id + 1));
        ord.push_back(id);
      }
    }(sim, order, i));
  }
  sim.run();
  ASSERT_EQ(order.size(), 15u);
  // First wakeup is task 0 at t=10, then task 1 at t=20 ties with task 0's
  // second sleep; FIFO order at equal times keeps this stable.
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(sim.now(), 150);  // slowest task: 3 sleeps of 50ns
}

TEST(Notifier, WakesAllWaiters) {
  Simulator sim;
  Notifier n(sim);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Notifier& nn, int& w) -> Task<void> {
      co_await nn.wait();
      ++w;
    }(n, woken));
  }
  sim.run();
  EXPECT_EQ(woken, 0);  // nobody notified yet
  sim.schedule(10, [&] { n.notify_all(); });
  sim.run();
  EXPECT_EQ(woken, 3);
}

TEST(Notifier, WaitUntilPredicate) {
  Simulator sim;
  Notifier n(sim);
  int value = 0;
  bool done = false;
  sim.spawn([](Notifier& nn, int& v, bool& d) -> Task<void> {
    co_await wait_until(nn, [&v] { return v >= 3; });
    d = true;
  }(n, value, done));
  for (int i = 1; i <= 3; ++i) {
    sim.schedule(i * 10, [&n, &value] {
      ++value;
      n.notify_all();
    });
  }
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), 30);
}

TEST(Notifier, WaitUntilTimeoutExpires) {
  Simulator sim;
  Notifier n(sim);
  bool result = true;
  sim.spawn([](Simulator&, Notifier& nn, bool& r) -> Task<void> {
    r = co_await wait_until_timeout(nn, [] { return false; }, us(100));
  }(sim, n, result));
  sim.run();
  EXPECT_FALSE(result);
  EXPECT_EQ(sim.now(), us(100));
}

TEST(Notifier, WaitUntilTimeoutSucceedsWhenNotified) {
  Simulator sim;
  Notifier n(sim);
  bool flag = false;
  bool result = false;
  sim.spawn([](Notifier& nn, bool& f, bool& r) -> Task<void> {
    r = co_await wait_until_timeout(nn, [&f] { return f; }, us(100));
  }(n, flag, result));
  sim.schedule(us(10), [&] {
    flag = true;
    n.notify_all();
  });
  sim.run();
  EXPECT_TRUE(result);
  EXPECT_EQ(sim.now(), us(10));  // the canceled timer did not move the clock
}

TEST(Notifier, WaitUntilTimeoutPredTrueOnDeadlineTick) {
  // The predicate becomes true by an event on the *same tick* as the
  // deadline. Same-time events run in insertion order, so the flag-setting
  // event (queued before the coroutine parks its deadline event) runs
  // first; the deadline resume then re-checks the predicate and sees the
  // flag — that counts as success, not timeout.
  Simulator sim;
  Notifier n(sim);
  bool flag = false;
  bool result = false;
  sim.schedule(us(100), [&] {
    flag = true;
    n.notify_all();
  });
  sim.spawn([](Notifier& nn, bool& f, bool& r) -> Task<void> {
    r = co_await wait_until_timeout(nn, [&f] { return f; }, us(100));
  }(n, flag, result));
  sim.run();
  EXPECT_TRUE(result);
  EXPECT_EQ(sim.now(), us(100));
}

TEST(Notifier, WaitUntilTimeoutZeroTimeout) {
  // Zero budget: a false predicate fails immediately (no suspension, no
  // time advance); an already-true predicate still succeeds.
  Simulator sim;
  Notifier n(sim);
  bool r_false = true;
  bool r_true = false;
  sim.spawn([](Notifier& nn, bool& rf, bool& rt) -> Task<void> {
    rf = co_await wait_until_timeout(nn, [] { return false; }, 0);
    rt = co_await wait_until_timeout(nn, [] { return true; }, 0);
  }(n, r_false, r_true));
  sim.run();
  EXPECT_FALSE(r_false);
  EXPECT_TRUE(r_true);
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(n.waiter_count(), 0u);
}

TEST(Notifier, WaitUntilTimeoutNotifierDestroyedWhileWaiting) {
  // The deadline event lives in the simulator, not the notifier, so a
  // waiter survives its notifier being destroyed mid-wait: it resumes at
  // the deadline and reports a timeout without touching the dead object.
  Simulator sim;
  auto n = std::make_unique<Notifier>(sim);
  bool result = true;
  bool finished = false;
  sim.spawn([](Notifier& nn, bool& r, bool& f) -> Task<void> {
    r = co_await wait_until_timeout(nn, [] { return false; }, us(100));
    f = true;
  }(*n, result, finished));
  sim.schedule(us(50), [&n] { n.reset(); });
  sim.run();
  EXPECT_TRUE(finished);
  EXPECT_FALSE(result);
  EXPECT_EQ(sim.now(), us(100));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng root(7);
  Rng a = root.fork(1);
  Rng b = root.fork(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformIntWithinBounds) {
  Rng r(9);
  for (int i = 0; i < 10'000; ++i) {
    const auto v = r.uniform_int(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng r(11);
  bool seen[5] = {};
  for (int i = 0; i < 1'000; ++i) seen[r.uniform_int(0, 4)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng r(13);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += r.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.3);
}

TEST(Rng, LognormalMeanRoughlyCorrect) {
  Rng r(17);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += r.lognormal_mean(5.0, 0.5);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, NurandWithinBounds) {
  Rng r(19);
  for (int i = 0; i < 10'000; ++i) {
    const auto v = r.nurand(255, 0, 999, 123);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 999);
  }
}

TEST(Stats, MeanAndPercentiles) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.record(i);
  EXPECT_DOUBLE_EQ(rec.mean(), 50.5);
  EXPECT_EQ(rec.percentile(0), 1);
  EXPECT_EQ(rec.percentile(100), 100);
  EXPECT_NEAR(static_cast<double>(rec.percentile(50)), 50.0, 1.0);
  EXPECT_NEAR(static_cast<double>(rec.percentile(99)), 99.0, 1.0);
  EXPECT_EQ(rec.min(), 1);
  EXPECT_EQ(rec.max(), 100);
}

TEST(Stats, PercentileEdgeCases) {
  // Table-driven nearest-rank checks, including the out-of-range clamp:
  // before the fix a negative p produced a negative rank whose size_t
  // conversion wrapped huge and returned the maximum sample.
  struct Case {
    std::vector<Nanos> samples;
    double p;
    Nanos want;
  };
  const Case cases[] = {
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0, 1},
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 100, 10},
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 50, 6},   // rank 4.5 rounds to idx 5
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, -5, 1},   // clamped to p=0
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 250, 10}, // clamped to p=100
      {{42}, 0, 42},
      {{42}, 50, 42},
      {{42}, 100, 42},
      {{42}, -1, 42},
      {{7, 3}, 0, 3},
      {{7, 3}, 49, 3},
      {{7, 3}, 51, 7},
      {{7, 3}, 100, 7},
  };
  for (const Case& c : cases) {
    LatencyRecorder rec;
    for (Nanos v : c.samples) rec.record(v);
    EXPECT_EQ(rec.percentile(c.p), c.want)
        << "samples=" << c.samples.size() << " p=" << c.p;
  }
  // The pre-fix wraparound: on 1..100, percentile(-5) returned 100.
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.record(i);
  EXPECT_EQ(rec.percentile(-5), 1);
}

TEST(Stats, CdfMatchesPercentile) {
  // cdf() and percentile() must use the same nearest-rank rounding; the
  // pre-fix cdf truncated the rank, disagreeing whenever its fractional
  // part was >= 0.5 (e.g. 10 samples at frac 0.1: rank 0.9 -> idx 0 vs 1).
  LatencyRecorder rec;
  for (int i = 1; i <= 10; ++i) rec.record(i * 10);
  const auto points = rec.cdf(10);
  ASSERT_EQ(points.size(), 10u);
  for (const auto& [lat, frac] : points) {
    EXPECT_EQ(lat, rec.percentile(frac * 100.0)) << "frac=" << frac;
  }
  EXPECT_EQ(points.front().first, rec.percentile(10));
  EXPECT_EQ(points.back().first, 100);
}

TEST(Stats, CdfSingleSample) {
  LatencyRecorder rec;
  rec.record(5);
  const auto points = rec.cdf(4);
  ASSERT_EQ(points.size(), 4u);
  for (const auto& [lat, frac] : points) EXPECT_EQ(lat, 5);
  EXPECT_DOUBLE_EQ(points.back().second, 1.0);
}

TEST(Stats, StddevOfConstantIsZero) {
  LatencyRecorder rec;
  for (int i = 0; i < 10; ++i) rec.record(42);
  EXPECT_DOUBLE_EQ(rec.stddev(), 0.0);
}

TEST(Stats, CdfIsMonotone) {
  LatencyRecorder rec;
  Rng r(21);
  for (int i = 0; i < 1'000; ++i) rec.record(static_cast<Nanos>(r.bounded(1'000'000)));
  auto points = rec.cdf(50);
  ASSERT_EQ(points.size(), 50u);
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].first, points[i - 1].first);
    EXPECT_GT(points[i].second, points[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(points.back().second, 1.0);
}

TEST(Stats, EmptyRecorderIsSafe) {
  LatencyRecorder rec;
  EXPECT_TRUE(rec.empty());
  EXPECT_DOUBLE_EQ(rec.mean(), 0.0);
  EXPECT_EQ(rec.percentile(50), 0);
  EXPECT_TRUE(rec.cdf().empty());
}

TEST(Stats, ThroughputWindow) {
  ThroughputWindow w{.completed = 5'000, .window = sec(2)};
  EXPECT_DOUBLE_EQ(w.per_second(), 2'500.0);
  ThroughputWindow empty{};
  EXPECT_DOUBLE_EQ(empty.per_second(), 0.0);
}

// ---------------------------------------------------------------------------
// Event queue: ordering contract and pop-then-execute semantics.

TEST(Simulator, ScheduleSameTimestampFromInsideEventRunsFifo) {
  // Scheduling at the *current* timestamp from inside an executing event
  // must land after every already-queued event at that instant (FIFO by
  // seq). The events pop before they run, so these pushes land while
  // their own timestamp is draining.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(10, [&] {
    order.push_back(1);
    sim.schedule(0, [&] {
      order.push_back(3);
      sim.schedule(0, [&] { order.push_back(4); });
    });
  });
  sim.schedule(10, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), 10);
}

TEST(Simulator, RandomizedOrderMatchesStableSortBySchedule) {
  // Gold determinism test: thousands of events with delays from zero to
  // 5 ms, many scheduled from inside executing events, must pop in exactly
  // ascending (when, seq) -- i.e. a stable sort of the schedule order by
  // timestamp.
  Simulator sim;
  Rng rng(1234);
  std::vector<int> fired;
  std::vector<std::pair<Nanos, int>> scheduled;  // (when, id) in seq order
  int next_id = 0;
  std::function<void(int)> spawn_more = [&](int depth) {
    const int id = next_id++;
    const double pick = rng.uniform();
    Nanos delay = 0;
    if (pick < 0.3) {
      delay = 0;  // same tick
    } else if (pick < 0.6) {
      delay = rng.uniform_int(1, 1000);  // short
    } else if (pick < 0.9) {
      delay = rng.uniform_int(1000, 300'000);  // medium
    } else {
      delay = rng.uniform_int(300'000, 5'000'000);  // long
    }
    scheduled.emplace_back(sim.now() + delay, id);
    sim.schedule(delay, [&, id, depth] {
      fired.push_back(id);
      if (depth < 3) {
        spawn_more(depth + 1);
        spawn_more(depth + 1);
      }
    });
  };
  for (int i = 0; i < 200; ++i) spawn_more(0);
  sim.run();

  ASSERT_EQ(fired.size(), scheduled.size());
  std::stable_sort(
      scheduled.begin(), scheduled.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < fired.size(); ++i) {
    ASSERT_EQ(fired[i], scheduled[i].second) << "divergence at pop " << i;
  }
}

TEST(Simulator, RunUntilPeekThenEarlierScheduleStaysOrdered) {
  // run_until peeks the head (a far-future event), declines to pop it,
  // and the caller then schedules something earlier. The peek must leave
  // the queue able to pop the new event first.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(ms(1), [&] { order.push_back(2); });
  sim.schedule_at(ms(5), [&] { order.push_back(3); });
  sim.run_until(us(100));
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(sim.now(), us(100));
  sim.schedule_at(us(200), [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), ms(5));
}

// Drives an EventQueue directly against a std::set reference: each step
// pushes (at `now` plus a delay from the given mix) or pops, and every pop
// must return the reference's minimum (when, seq) with its own callable.
// Pushes are biased while the depth is below `target_depth`, pops above it.
void run_queue_differential(std::uint64_t seed, std::size_t target_depth,
                            std::size_t steps) {
  EventQueue q;
  std::set<std::pair<Nanos, std::uint64_t>> ref;
  Rng rng(seed);
  Nanos now = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t ran = UINT64_MAX;
  std::size_t max_depth = 0;
  for (std::size_t i = 0; i < steps; ++i) {
    const double push_odds = q.size() < target_depth ? 0.7 : 0.3;
    if (q.empty() || rng.uniform() < push_odds) {
      const double pick = rng.uniform();
      Nanos delay = 0;
      if (pick < 0.25) {
        delay = 0;  // equal timestamps
      } else if (pick < 0.5) {
        delay = rng.uniform_int(1, 64);
      } else if (pick < 0.8) {
        delay = rng.uniform_int(1, us(300));
      } else {
        delay = rng.uniform_int(us(300), ms(10));
      }
      const std::uint64_t seq = next_seq++;
      q.push(Event{now + delay, seq, [&ran, seq] { ran = seq; }});
      ref.emplace(now + delay, seq);
    } else {
      ASSERT_EQ(q.next_when(), ref.begin()->first) << "step " << i;
      Event ev = q.pop();
      ASSERT_EQ(ev.when, ref.begin()->first) << "step " << i;
      ASSERT_EQ(ev.seq, ref.begin()->second) << "step " << i;
      ref.erase(ref.begin());
      ev.fn();
      ASSERT_EQ(ran, ev.seq) << "step " << i;
      now = ev.when;
    }
    ASSERT_EQ(q.size(), ref.size());
    max_depth = std::max(max_depth, q.size());
  }
  EXPECT_GE(max_depth, target_depth);
  while (!q.empty()) {
    ASSERT_EQ(q.next_when(), ref.begin()->first);
    Event ev = q.pop();
    ASSERT_EQ(ev.seq, ref.begin()->second);
    ref.erase(ref.begin());
  }
  EXPECT_TRUE(ref.empty());
}

TEST(EventQueue, MatchesOrderedSetAtShallowDepth) {
  run_queue_differential(7, 16, 200'000);
}

TEST(EventQueue, MatchesOrderedSetAtMediumDepth) {
  run_queue_differential(8, 2'000, 200'000);
}

TEST(EventQueue, MatchesOrderedSetAtDeepQueue) {
  run_queue_differential(9, 100'000, 400'000);
}

TEST(EventQueue, CancelsMatchOrderedSetAcrossCompactions) {
  // Pushes, pops and cancels against a std::set reference. A canceled
  // event must never come back with a callable, every live one must pop
  // in (when, seq) order, and after a cancel the heap must hold at most
  // about an eighth more keys than live events.
  EventQueue q;
  std::set<std::pair<Nanos, std::uint64_t>> ref;
  std::vector<std::pair<EventQueue::Handle, std::pair<Nanos, std::uint64_t>>>
      handles;
  Rng rng(21);
  Nanos now = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t ran = UINT64_MAX;
  for (int i = 0; i < 300'000; ++i) {
    const double pick = rng.uniform();
    if (pick < 0.45 || ref.empty()) {
      const Nanos when = now + rng.uniform_int(0, us(500));
      const std::uint64_t seq = next_seq++;
      handles.emplace_back(
          q.push(Event{when, seq, [&ran, seq] { ran = seq; }}),
          std::pair{when, seq});
      ref.emplace(when, seq);
    } else if (pick < 0.75) {
      const std::size_t k = rng.uniform_int(0, handles.size() - 1);
      const bool pending = ref.erase(handles[k].second) == 1;
      ASSERT_EQ(q.cancel(handles[k].first), pending) << "step " << i;
      handles[k] = handles.back();
      handles.pop_back();
      // A cancel reclaims dead keys once they are more than 8 and more
      // than an eighth of the heap.
      if (pending) {
        ASSERT_LE(q.size(),
                  ref.size() + std::max<std::size_t>(8, ref.size() / 7))
            << "step " << i;
      }
    } else {
      Event ev = q.pop();
      while (!ev.fn) ev = q.pop();  // canceled entries come back empty
      ASSERT_EQ(ev.when, ref.begin()->first) << "step " << i;
      ASSERT_EQ(ev.seq, ref.begin()->second) << "step " << i;
      ref.erase(ref.begin());
      ev.fn();
      ASSERT_EQ(ran, ev.seq);
      now = ev.when;
    }
    if (handles.size() > 4 * ref.size() + 64) {
      // Forget handles of popped events (their cancel must stay false).
      std::erase_if(handles, [&](const auto& h) {
        const bool popped = !ref.contains(h.second);
        if (popped) {
          EXPECT_FALSE(q.cancel(h.first));
        }
        return popped;
      });
    }
  }
  while (!ref.empty()) {
    Event ev = q.pop();
    if (!ev.fn) continue;
    ASSERT_EQ(ev.seq, ref.begin()->second);
    ref.erase(ref.begin());
  }
  while (!q.empty()) EXPECT_FALSE(q.pop().fn);
}

TEST(EventQueue, PeekThenEarlierPushPopsTheEarlierEvent) {
  EventQueue q;
  q.push(Event{ms(1), 0, [] {}});
  q.push(Event{ms(5), 1, [] {}});
  EXPECT_EQ(q.next_when(), ms(1));
  q.push(Event{us(200), 2, [] {}});  // earlier than the peeked head
  EXPECT_EQ(q.next_when(), us(200));
  q.push(Event{ms(1), 3, [] {}});  // ties the old head; later seq
  std::vector<std::uint64_t> seqs;
  while (!q.empty()) seqs.push_back(q.pop().seq);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{2, 0, 3, 1}));
}

// Counts its own live instances, so a callable destroyed twice (or never)
// shows up as a nonzero balance.
struct LiveCounter {
  explicit LiveCounter(int& live) : live(&live) { ++live; }
  LiveCounter(const LiveCounter& o) : live(o.live) { ++*live; }
  LiveCounter(LiveCounter&& o) noexcept : live(o.live) { ++*live; }
  LiveCounter& operator=(const LiveCounter&) = delete;
  LiveCounter& operator=(LiveCounter&&) = delete;
  ~LiveCounter() { --*live; }
  int* live;
};

TEST(EventQueue, SimulatorTeardownReleasesQueuedCallablesOnce) {
  auto token = std::make_shared<int>(0);
  int live = 0;
  {
    Simulator sim;
    for (int i = 0; i < 1'000; ++i) {
      LiveCounter counter(live);
      if (i % 2 == 0) {
        sim.schedule(i, [token, counter] { *token += 1; });  // inline
      } else {
        std::array<std::uint64_t, 8> pad{};  // too big: heap target
        sim.schedule(i, [token, counter, pad] {
          *token += 1 + static_cast<int>(pad[0]);
        });
      }
    }
    sim.run_until(499);  // run half; the rest stays queued
    EXPECT_EQ(*token, 500);
    EXPECT_EQ(sim.pending_events(), 500u);
    EXPECT_EQ(token.use_count(), 501);
    EXPECT_EQ(live, 500);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(live, 0);
}

TEST(EventQueue, RunningCallableSurvivesSlabGrowth) {
  Simulator sim;
  auto token = std::make_shared<int>(42);
  const std::string name(100, 'x');  // a heap-allocated capture
  int scheduled_ran = 0;
  bool checked = false;
  sim.schedule(1, [&, token, name] {
    // This callable's slot was freed before it ran, so after the first
    // push every push takes a fresh slab slot, and the slab reallocates
    // several times under the running callable.
    for (int i = 0; i < 5'000; ++i) {
      sim.schedule(i % 7, [&scheduled_ran] { ++scheduled_ran; });
    }
    EXPECT_EQ(*token, 42);
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_EQ(name, std::string(100, 'x'));
    checked = true;
  });
  sim.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(scheduled_ran, 5'000);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, PendingEventsHoldsAtFixedDepthOverAMillionCycles) {
  constexpr std::size_t kDepth = 100;
  Simulator sim;
  Rng rng(5);
  std::function<void()> chain = [&] {
    sim.schedule(rng.uniform_int(0, 5'000), [&] { chain(); });
  };
  for (std::size_t i = 0; i < kDepth; ++i) chain();
  while (sim.events_executed() < 1'000'000) {
    sim.run_for(us(100));
    ASSERT_EQ(sim.pending_events(), kDepth);
  }
}

TEST(Simulator, RootFailureSurfacesPromptly) {
  // An exception escaping a root task must abort the run at that event
  // boundary. Pre-fix, spawn() only reaped past 64 roots, so run() kept
  // executing every queued event and only rethrew once the queue drained.
  Simulator sim;
  bool later_ran = false;
  sim.spawn([](Simulator& s) -> Task<void> {
    co_await s.sleep(us(1));
    throw std::runtime_error("root failure");
  }(sim));
  sim.schedule(us(2), [&] { later_ran = true; });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_FALSE(later_ran) << "events after the failure boundary still ran";
  // The failure was consumed; surviving events run on the next call.
  sim.run();
  EXPECT_TRUE(later_ran);
}

TEST(Notifier, SimulatorTeardownWithTimedWaiterParked) {
  // A root parked in wait_until_timeout holds an armed timer, and its
  // frame cancels that timer when destroyed. The simulator must destroy
  // its roots before its queue, or teardown reads freed memory (reported
  // under ASan).
  bool woke = false;
  {
    Simulator sim;
    Notifier n(sim);
    sim.spawn([](Notifier& note, bool& w) -> Task<void> {
      w = co_await wait_until_timeout(note, [] { return false; }, ms(5));
    }(n, woke));
    sim.run_until(us(10));
  }
  EXPECT_FALSE(woke);
}

TEST(Simulator, TimerPoolCancelReuseAndStaleTokens) {
  // cancel_timer clears the token it is given, so the stale tokens below
  // are copies taken while they were current.
  Simulator sim;
  int fired = 0;
  auto t1 = sim.schedule_at(us(10), [&] { fired += 1; });
  auto t2 = sim.schedule_at(us(20), [&] { fired += 10; });
  auto t3 = sim.schedule_at(us(30), [&] { fired += 100; });
  const auto t1_copy = t1;
  const auto t3_copy = t3;
  EXPECT_TRUE(sim.cancel_timer(t3));
  EXPECT_FALSE(t3.armed());            // cancel clears the token
  EXPECT_FALSE(sim.cancel_timer(t3));  // and a cleared token is a no-op
  auto stale = t3_copy;
  EXPECT_FALSE(sim.cancel_timer(stale));  // already canceled
  sim.run_until(us(15));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.cancel_timer(t1));  // already fired
  // t4 reuses the slot t1's event freed; neither stale token may cancel it.
  auto t4 = sim.schedule_at(us(25), [&] { fired += 1000; });
  EXPECT_EQ(t4.slot, t1_copy.slot);
  stale = t1_copy;
  EXPECT_FALSE(sim.cancel_timer(stale));
  stale = t3_copy;
  EXPECT_FALSE(sim.cancel_timer(stale));
  const std::uint64_t executed = sim.events_executed();
  sim.run();
  EXPECT_EQ(fired, 1011);  // t1, t2 and t4 ran; t3 never did
  EXPECT_EQ(sim.events_executed(), executed + 2);  // t3 is not counted
  EXPECT_EQ(sim.now(), us(25));  // and did not move the clock to 30
  EXPECT_FALSE(sim.cancel_timer(t2));
  EXPECT_FALSE(sim.cancel_timer(t4));
}

TEST(Simulator, ArmAndCancelKeepsTheQueueNearItsLiveDepth) {
  // The client's submit loop: every request arms a long deadline timer
  // and cancels it when the reply lands, over a shallow live queue. Each
  // canceled timer must leave the queue instead of lingering until its
  // deadline; pre-fix, pending_events() grew by one per cancel.
  constexpr std::size_t kLive = 100;
  constexpr int kRequests = 20'000;
  Simulator sim;
  Rng rng(17);
  std::function<void()> chain = [&] {
    sim.schedule(rng.uniform_int(1, 2'000), [&] { chain(); });
  };
  for (std::size_t i = 0; i < kLive; ++i) chain();
  int deadlines_fired = 0;
  std::size_t max_pending = 0;
  for (int i = 0; i < kRequests; ++i) {
    auto timer =
        sim.schedule_at(sim.now() + ms(100), [&] { ++deadlines_fired; });
    sim.run_for(100);
    max_pending = std::max(max_pending, sim.pending_events());
    EXPECT_TRUE(sim.cancel_timer(timer));
  }
  EXPECT_EQ(deadlines_fired, 0);
  EXPECT_LE(max_pending, 2 * (kLive + 1));
  EXPECT_LE(sim.pending_events(), 2 * kLive);
}

TEST(EventFn, InlineAndHeapTargetsInvokeAndDestroyOnce) {
  auto token = std::make_shared<int>(0);
  {
    EventFn small([token] { *token += 1; });  // fits the inline buffer
    std::array<std::uint64_t, 8> pad{};       // 64-byte capture: heap path
    EventFn big([token, pad] { *token += static_cast<int>(pad[0]) + 10; });
    EventFn moved = std::move(small);
    moved();
    big();
    EXPECT_EQ(*token, 11);
    // token + moved's capture + big's capture; the moved-from small
    // relocated its capture rather than copying it.
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);  // every capture destroyed exactly once
}

// ---------------------------------------------------------------------------
// Notifier liveness: destroying a parked coroutine frame must unlink its
// waiter so no walker ever resumes a dead handle (use-after-free pre-fix).

Task<void> flag_waiter(Notifier& n, bool& resumed) {
  co_await n.wait();
  resumed = true;
}

TEST(Notifier, ParkedWaiterDestroyedBeforeNotifyIsNotResumed) {
  Simulator sim;
  Notifier n(sim);
  bool resumed = false;
  auto waiter = flag_waiter(n, resumed);
  waiter.start();
  EXPECT_EQ(n.waiter_count(), 1u);
  waiter = Task<void>{};  // crash-injection analogue: frame torn down parked
  EXPECT_EQ(n.waiter_count(), 0u);
  n.notify_all();
  sim.run();
  EXPECT_FALSE(resumed);
}

TEST(Notifier, FiredWaiterDestroyedBeforeWalkerRunsIsSkipped) {
  // The sharpest pre-fix case: notify_all() already queued the wakeup
  // when the frame is destroyed; the old kernel's scheduled callback
  // resumed a dead coroutine handle.
  Simulator sim;
  Notifier n(sim);
  bool resumed = false;
  bool other_resumed = false;
  auto doomed = flag_waiter(n, resumed);
  auto survivor = flag_waiter(n, other_resumed);
  doomed.start();
  survivor.start();
  n.notify_all();
  doomed = Task<void>{};  // destroyed between notify and the walker event
  sim.run();
  EXPECT_FALSE(resumed);
  EXPECT_TRUE(other_resumed);
}

TEST(Notifier, WokenWaiterDestroyingSiblingWaiterIsSafe) {
  Simulator sim;
  Notifier n(sim);
  bool r1 = false;
  bool r2 = false;
  auto sibling = std::make_unique<Task<void>>(flag_waiter(n, r2));
  auto killer = [](Notifier& nn, std::unique_ptr<Task<void>>& sib,
                   bool& r) -> Task<void> {
    co_await nn.wait();
    sib.reset();  // tears down the next frame in this very wakeup batch
    r = true;
  }(n, sibling, r1);
  killer.start();
  sibling->start();
  n.notify_all();
  sim.run();
  EXPECT_TRUE(r1);
  EXPECT_FALSE(r2);
}

TEST(Notifier, NotifierDestroyedByWokenWaiterStillWakesBatch) {
  // Matches the old kernel's semantics: waiters already notified keep
  // their wakeup even if the notifier dies before the walker reaches them.
  Simulator sim;
  auto n = std::make_unique<Notifier>(sim);
  bool r1 = false;
  bool r2 = false;
  auto destroyer = [](std::unique_ptr<Notifier>& nn, bool& r) -> Task<void> {
    co_await nn->wait();
    nn.reset();
    r = true;
  }(n, r1);
  auto second = flag_waiter(*n, r2);
  destroyer.start();
  second.start();
  n->notify_all();
  sim.run();
  EXPECT_TRUE(r1);
  EXPECT_TRUE(r2);
}

TEST(Notifier, TimedWaiterDestroyedMidWaitCancelsDeadlineResume) {
  // A frame destroyed while suspended in wait_until_timeout must cancel
  // its deadline timer (frame locals run their destructors on destroy),
  // so the deadline never resumes a dead handle.
  Simulator sim;
  Notifier n(sim);
  bool resumed = false;
  auto w = [](Notifier& nn, bool& r) -> Task<void> {
    (void)co_await wait_until_timeout(nn, [] { return false; }, us(100));
    r = true;
  }(n, resumed);
  w.start();
  sim.run_until(us(10));
  w = Task<void>{};
  sim.run();  // pre-fix: the deadline timer resumed the destroyed frame
  EXPECT_FALSE(resumed);
  EXPECT_EQ(sim.now(), us(10));  // the canceled timer did not move the clock
}

TEST(Notifier, NotifyHeavyTimedWaitKeepsEventQueueBounded) {
  // Queue-bloat guard for the deadline timer + intrusive waiters: a timed
  // wait bombarded by notifies must hold at most the deadline timer, one
  // in-flight walker and the re-park -- not one event per notify.
  Simulator sim;
  Notifier n(sim);
  bool result = true;
  sim.spawn([](Notifier& nn, bool& r) -> Task<void> {
    r = co_await wait_until_timeout(nn, [] { return false; }, ms(10));
  }(n, result));
  std::size_t max_pending = 0;
  for (int i = 0; i < 1000; ++i) {
    sim.run_for(us(1));
    n.notify_all();
    max_pending = std::max(max_pending, sim.pending_events());
  }
  sim.run();
  EXPECT_FALSE(result);
  EXPECT_EQ(sim.now(), ms(10));
  EXPECT_LE(max_pending, 3u);
}

// ---------------------------------------------------------------------------
// LatencyRecorder histogram mode.

TEST(Stats, HistogramPercentileParityWithVerbatim) {
  LatencyRecorder exact;
  LatencyRecorder hist(LatencyRecorder::Mode::kHistogram);
  Rng rng(99);
  for (int i = 0; i < 200'000; ++i) {
    const auto v = static_cast<Nanos>(rng.lognormal_mean(30'000.0, 0.8));
    exact.record(v);
    hist.record(v);
  }
  EXPECT_EQ(hist.count(), exact.count());
  EXPECT_EQ(hist.min(), exact.min());
  EXPECT_EQ(hist.max(), exact.max());
  EXPECT_NEAR(hist.mean(), exact.mean(), exact.mean() * 1e-9);
  EXPECT_NEAR(hist.stddev(), exact.stddev(), exact.stddev() * 1e-6);
  for (const double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9}) {
    const auto e = static_cast<double>(exact.percentile(p));
    const auto h = static_cast<double>(hist.percentile(p));
    // 64 sub-buckets per octave: bucket width <= 1/64 of the value.
    EXPECT_NEAR(h, e, std::max(1.0, e / 64.0)) << "p" << p;
  }
}

TEST(Stats, HistogramCdfParity) {
  LatencyRecorder exact;
  LatencyRecorder hist(LatencyRecorder::Mode::kHistogram);
  Rng rng(7);
  for (int i = 0; i < 50'000; ++i) {
    const auto v = static_cast<Nanos>(rng.exponential(10'000.0));
    exact.record(v);
    hist.record(v);
  }
  const auto ce = exact.cdf(20);
  const auto ch = hist.cdf(20);
  ASSERT_EQ(ce.size(), ch.size());
  for (std::size_t i = 0; i < ce.size(); ++i) {
    EXPECT_DOUBLE_EQ(ch[i].second, ce[i].second);
    const auto e = static_cast<double>(ce[i].first);
    EXPECT_NEAR(static_cast<double>(ch[i].first), e,
                std::max(1.0, e / 64.0));
    if (i > 0) {
      EXPECT_GE(ch[i].first, ch[i - 1].first);  // monotone
    }
  }
}

TEST(Stats, HistogramSmallValuesAreExact) {
  LatencyRecorder hist(LatencyRecorder::Mode::kHistogram);
  for (Nanos v = 0; v < 64; ++v) hist.record(v);
  EXPECT_EQ(hist.percentile(0), 0);
  EXPECT_EQ(hist.percentile(50), 32);  // nearest-rank over 0..63
  EXPECT_EQ(hist.percentile(100), 63);
}

TEST(Stats, HistogramBoundedUnderTenMillionRecords) {
  LatencyRecorder hist(LatencyRecorder::Mode::kHistogram);
  Rng rng(3);
  for (int i = 0; i < 10'000'000; ++i) {
    hist.record(static_cast<Nanos>(rng.bounded(100'000'000)));
  }
  EXPECT_EQ(hist.count(), 10'000'000u);
  // Structural bound: no per-sample storage, only fixed bucket counters.
  EXPECT_TRUE(hist.samples().empty());
  EXPECT_GT(hist.percentile(50), 0);
  hist.clear();
  EXPECT_TRUE(hist.empty());
}

// ---------------------------------------------------------------------------
// Zipfian skew generator.

TEST(Rng, ZipfRanksWithinBoundsAndSkewed) {
  Rng rng(7);
  ZipfGen zipf(1'000'000, 0.99);
  std::uint64_t top10 = 0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t rank = zipf.next(rng);
    ASSERT_LT(rank, 1'000'000u);
    top10 += rank < 10 ? 1 : 0;
  }
  // YCSB theta=0.99 over 10^6 keys puts ~19% of mass on the top 10.
  EXPECT_GT(top10, kDraws / 10);
}

TEST(Rng, ZipfThetaZeroIsUniform) {
  Rng rng(11);
  ZipfGen zipf(1'000'000, 0.0);
  std::uint64_t top10 = 0;
  for (int i = 0; i < 100'000; ++i) {
    top10 += zipf.next(rng) < 10 ? 1 : 0;
  }
  EXPECT_LT(top10, 100u);  // expected ~1 hit
}

TEST(Rng, ZipfIsDeterministicPerSeed) {
  ZipfGen zipf(4096, 0.99);
  Rng a(21);
  Rng b(21);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(zipf.next(a), zipf.next(b));
  }
}


// --- SeqWindow ---------------------------------------------------------

std::vector<std::uint64_t> above_of(const SeqWindow& w) {
  std::vector<std::uint64_t> out;
  w.for_each_above([&out](std::uint64_t seq) { out.push_back(seq); });
  return out;
}

TEST(SeqWindow, SeqZeroStartsBelowTheExclusiveFloor) {
  // The amcast delivered set: floor 0 means "nothing delivered", so seq 0
  // is an ordinary undelivered seq until inserted.
  SeqWindow w;
  EXPECT_EQ(w.floor(), 0u);
  EXPECT_FALSE(w.contains(0));
  w.insert(0);
  EXPECT_TRUE(w.contains(0));
  EXPECT_EQ(w.floor(), 1u);
  EXPECT_EQ(above_of(w).size(), 0u);
  EXPECT_EQ(w.end(), 1u);
}

TEST(SeqWindow, FloorOneGivesAnInclusiveWatermark) {
  // The session view: floor 1 marks seq 0 as "taken", so floor() - 1 is
  // the highest seq with everything at or below it executed.
  SeqWindow w(1);
  EXPECT_EQ(w.floor() - 1, 0u);
  EXPECT_FALSE(w.contains(1));
  w.insert(1);
  w.insert(2);
  EXPECT_EQ(w.floor() - 1, 2u);
  w.insert(4);
  EXPECT_EQ(w.floor() - 1, 2u);
  EXPECT_TRUE(w.contains(4));
  EXPECT_FALSE(w.contains(3));
}

TEST(SeqWindow, OutOfOrderInsertsCloseTheFloor) {
  SeqWindow w;
  for (const std::uint64_t seq : {5u, 3u, 70u, 1u, 64u, 0u, 2u, 4u}) {
    w.insert(seq);
    w.insert(seq);  // duplicates are no-ops
  }
  EXPECT_EQ(w.floor(), 6u);
  EXPECT_EQ(above_of(w), (std::vector<std::uint64_t>{64, 70}));
  EXPECT_EQ(above_of(w).size(), 2u);
  EXPECT_EQ(w.end(), 71u);
  for (std::uint64_t seq = 6; seq < 64; ++seq) w.insert(seq);
  EXPECT_EQ(w.floor(), 65u);
  EXPECT_EQ(above_of(w), (std::vector<std::uint64_t>{70}));
}

TEST(SeqWindow, PermanentHoleKeepsTenThousandSeqsAbove) {
  // Uids are numbered per client across groups, so a group's floor stalls
  // at the first seq sent elsewhere and everything above piles up.
  SeqWindow w;
  for (std::uint64_t seq = 1; seq <= 10'000; ++seq) w.insert(seq);
  EXPECT_EQ(w.floor(), 0u);
  EXPECT_EQ(above_of(w).size(), 10'000u);
  EXPECT_EQ(w.end(), 10'001u);
  EXPECT_FALSE(w.contains(0));
  EXPECT_TRUE(w.contains(1));
  EXPECT_TRUE(w.contains(10'000));
  EXPECT_FALSE(w.contains(10'001));
  const auto above = above_of(w);
  ASSERT_EQ(above.size(), 10'000u);
  EXPECT_TRUE(std::is_sorted(above.begin(), above.end()));
  EXPECT_EQ(above.front(), 1u);
  EXPECT_EQ(above.back(), 10'000u);
  w.insert(0);  // the hole closes: everything collapses into the floor
  EXPECT_EQ(w.floor(), 10'001u);
  EXPECT_EQ(above_of(w).size(), 0u);
}

TEST(SeqWindow, RaiseFloorAndMergeAreUnions) {
  SeqWindow a(10);
  a.insert(12);
  a.insert(200);
  SeqWindow b;
  b.insert(0);
  b.insert(10);
  b.insert(11);
  b.insert(130);
  a.merge(b);
  EXPECT_EQ(a.floor(), 13u);  // 10 and 11 from b close the gap to 12
  EXPECT_EQ(above_of(a), (std::vector<std::uint64_t>{130, 200}));
  a.raise_floor(150);
  EXPECT_EQ(a.floor(), 150u);
  EXPECT_EQ(above_of(a), (std::vector<std::uint64_t>{200}));
  a.raise_floor(100);  // never lowers
  EXPECT_EQ(a.floor(), 150u);

  SeqWindow c(150);
  c.insert(200);
  EXPECT_TRUE(a == c);
  c.insert(201);
  EXPECT_FALSE(a == c);
}

// --- coroutine frame pool --------------------------------------------------

TEST(FramePool, FreedBlocksAreReusedPerSizeClass) {
  using detail::FramePool;
  for (std::size_t bytes : {std::size_t{24}, std::size_t{100}, std::size_t{512},
                            FramePool::kMaxPooledBytes}) {
    void* a = FramePool::allocate(bytes);
    std::memset(a, 0xAB, bytes);
    FramePool::deallocate(a, bytes);
    void* b = FramePool::allocate(bytes);
    if (FramePool::kPooling) {
      EXPECT_EQ(a, b) << bytes << "-byte frame";
    }
    FramePool::deallocate(b, bytes);
  }
  // 33 and 48 bytes share the 48-byte class; 49 bytes does not.
  void* c = FramePool::allocate(33);
  FramePool::deallocate(c, 33);
  void* d = FramePool::allocate(48);
  void* e = FramePool::allocate(49);
  if (FramePool::kPooling) {
    EXPECT_EQ(c, d);
    EXPECT_NE(d, e);
  }
  std::memset(d, 0, 48);
  std::memset(e, 0, 49);
  FramePool::deallocate(e, 49);
  FramePool::deallocate(d, 48);
}

TEST(FramePool, OversizedFrameRoundTripsThroughTheHeap) {
  using detail::FramePool;
  const std::size_t bytes = FramePool::kMaxPooledBytes + 1;
  auto* p = static_cast<unsigned char*>(FramePool::allocate(bytes));
  std::memset(p, 0x5A, bytes);
  EXPECT_EQ(p[bytes - 1], 0x5A);
  FramePool::deallocate(p, bytes);
}

Task<std::uintptr_t> frame_address() {
  int in_frame = 0;  // its address escapes, so it lives in the frame
  co_return reinterpret_cast<std::uintptr_t>(&in_frame);
}

Task<std::uintptr_t> big_frame_address() {
  std::array<unsigned char, 4096> in_frame{};
  co_return reinterpret_cast<std::uintptr_t>(in_frame.data()) + in_frame[0];
}

TEST(FramePool, CoroutineFramesAreRecycled) {
  Simulator sim;
  std::array<std::uintptr_t, 4> seen{};
  sim.spawn([](std::array<std::uintptr_t, 4>& out) -> Task<void> {
    out[0] = co_await frame_address();  // frame freed at the `;`
    out[1] = co_await frame_address();
    out[2] = co_await big_frame_address();
    out[3] = co_await big_frame_address();
  }(seen));
  sim.run();
  ASSERT_NE(seen[0], 0u);
  if (detail::FramePool::kPooling) {
    EXPECT_EQ(seen[0], seen[1]);
  } else {
    // ASan builds: frames come straight from the heap, where quarantine
    // keeps a freed frame's memory out of circulation (so a use after
    // free is reported instead of silently reading a recycled frame).
    EXPECT_NE(seen[0], seen[1]);
  }
  EXPECT_NE(seen[2], 0u);
  EXPECT_NE(seen[3], 0u);
}

}  // namespace
}  // namespace heron::sim
