// Unit tests for the discrete-event simulation engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace tango::sim {
namespace {

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(Simulator, SimultaneousEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(100, [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime fired = -1;
  sim.ScheduleAt(50, [&] {
    sim.ScheduleAfter(25, [&] { fired = sim.Now(); });
  });
  sim.RunAll();
  EXPECT_EQ(fired, 75);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  SimTime fired = -1;
  sim.ScheduleAt(10, [&] {
    sim.ScheduleAfter(-5, [&] { fired = sim.Now(); });
  });
  sim.RunAll();
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventHandle h = sim.ScheduleAt(10, [&] { ran = true; });
  sim.Cancel(h);
  sim.RunAll();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire) {
  Simulator sim;
  int count = 0;
  const EventHandle h = sim.ScheduleAt(10, [&] { ++count; });
  sim.RunAll();
  sim.Cancel(h);  // already fired — must be a no-op
  sim.Cancel(h);
  sim.Cancel(kInvalidEvent);
  EXPECT_EQ(count, 1);
}

TEST(Simulator, CancelOneOfManyAtSameTime) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(10, [&] { order.push_back(0); });
  const EventHandle h = sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(10, [&] { order.push_back(2); });
  sim.Cancel(h);
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.ScheduleAt(10, [&] { fired.push_back(10); });
  sim.ScheduleAt(20, [&] { fired.push_back(20); });
  sim.ScheduleAt(21, [&] { fired.push_back(21); });
  sim.RunUntil(20);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sim.Now(), 20);
  sim.RunUntil(30);
  EXPECT_EQ(fired.back(), 21);
}

TEST(Simulator, RunUntilReturnsExecutedCount) {
  Simulator sim;
  for (SimTime t : {5, 10, 10, 25}) {
    sim.ScheduleAt(t, [] {});
  }
  EXPECT_EQ(sim.RunUntil(10), 3u);  // 5, 10, 10
  EXPECT_EQ(sim.RunUntil(20), 0u);  // empty window still advances the clock
  EXPECT_EQ(sim.Now(), 20);
  EXPECT_EQ(sim.RunUntil(30), 1u);
}

TEST(Simulator, NextEventTimeTracksHeapHead) {
  Simulator sim;
  EXPECT_EQ(sim.NextEventTime(), Simulator::kNoEvent);
  const EventHandle h = sim.ScheduleAt(40, [] {});
  sim.ScheduleAt(70, [] {});
  EXPECT_EQ(sim.NextEventTime(), 40);
  sim.Cancel(h);
  EXPECT_EQ(sim.NextEventTime(), 70);
  sim.RunAll();
  EXPECT_EQ(sim.NextEventTime(), Simulator::kNoEvent);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.RunUntil(1000);
  EXPECT_EQ(sim.Now(), 1000);
}

TEST(Simulator, StepExecutesExactlyOneEvent) {
  Simulator sim;
  int count = 0;
  sim.ScheduleAt(1, [&] { ++count; });
  sim.ScheduleAt(2, [&] { ++count; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 10) sim.ScheduleAfter(1, recurse);
  };
  sim.ScheduleAt(0, recurse);
  sim.RunAll();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.Now(), 9);
  EXPECT_EQ(sim.executed_events(), 10u);
}

TEST(Simulator, PeriodicTickFiresUntilStopped) {
  Simulator sim;
  std::vector<SimTime> ticks;
  auto stop = SchedulePeriodic(sim, 100, 50, [&](SimTime t) {
    ticks.push_back(t);
    (void)t;
  });
  sim.RunUntil(300);
  EXPECT_EQ(ticks, (std::vector<SimTime>{100, 150, 200, 250, 300}));
  stop();
  sim.RunUntil(1000);
  EXPECT_EQ(ticks.size(), 5u);  // no further ticks after stop
}

TEST(Simulator, PeriodicTickStoppedFromInsideCallback) {
  Simulator sim;
  int count = 0;
  std::function<void()> stop;
  stop = SchedulePeriodic(sim, 10, 10, [&](SimTime) {
    if (++count == 3) stop();
  });
  sim.RunUntil(10'000);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, CancelManyInterleavedCompactsTombstones) {
  // Cancel every other event out of a large batch: the lazy tombstone list
  // must skip exactly the cancelled ones and consume each tombstone on pop.
  Simulator sim;
  std::vector<int> ran;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 200; ++i) {
    handles.push_back(sim.ScheduleAt(i, [&ran, i] { ran.push_back(i); }));
  }
  for (std::size_t i = 0; i < handles.size(); i += 2) sim.Cancel(handles[i]);
  sim.RunAll();
  ASSERT_EQ(ran.size(), 100u);
  for (std::size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i], static_cast<int>(2 * i + 1));
  }
  EXPECT_EQ(sim.executed_events(), 100u);
}

TEST(Simulator, DoubleCancelConsumesOnlyOneTombstone) {
  // Cancelling the same handle twice must not leave a stale tombstone that
  // could swallow an unrelated future event.
  Simulator sim;
  bool cancelled_ran = false, later_ran = false;
  const EventHandle h = sim.ScheduleAt(10, [&] { cancelled_ran = true; });
  sim.Cancel(h);
  sim.Cancel(h);
  sim.ScheduleAt(20, [&] { later_ran = true; });
  sim.RunAll();
  EXPECT_FALSE(cancelled_ran);
  EXPECT_TRUE(later_ran);
}

TEST(Simulator, CancelAfterFireDoesNotAffectLaterEvents) {
  // A tombstone for an already-fired handle must never match a live event,
  // even after the list is re-sorted by subsequent cancels.
  Simulator sim;
  int fired = 0;
  const EventHandle early = sim.ScheduleAt(1, [&] { ++fired; });
  sim.RunAll();
  sim.Cancel(early);  // stale: the event already fired
  const EventHandle doomed = sim.ScheduleAt(5, [&] { ++fired; });
  sim.ScheduleAt(6, [&] { ++fired; });
  sim.Cancel(doomed);  // forces a re-sort with the stale tombstone present
  sim.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelFromCallbackAtSameTimestamp) {
  // An event may cancel a simultaneous event that is still queued behind it.
  Simulator sim;
  bool victim_ran = false;
  EventHandle victim = kInvalidEvent;
  sim.ScheduleAt(10, [&] { sim.Cancel(victim); });
  victim = sim.ScheduleAt(10, [&] { victim_ran = true; });
  sim.RunAll();
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(Simulator, PeriodicStopBeforeFirstTick) {
  Simulator sim;
  int count = 0;
  auto stop = SchedulePeriodic(sim, 100, 50, [&](SimTime) { ++count; });
  stop();  // stopped while the first tick is still pending
  sim.RunUntil(1000);
  EXPECT_EQ(count, 0);
}

TEST(Simulator, PeriodicStopIsIdempotent) {
  Simulator sim;
  int count = 0;
  auto stop = SchedulePeriodic(sim, 10, 10, [&](SimTime) { ++count; });
  sim.RunUntil(35);
  stop();
  stop();  // second call must be a harmless no-op
  sim.RunUntil(1000);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, TwoPeriodicsStopIndependently) {
  Simulator sim;
  int a = 0, b = 0;
  auto stop_a = SchedulePeriodic(sim, 10, 10, [&](SimTime) { ++a; });
  auto stop_b = SchedulePeriodic(sim, 10, 10, [&](SimTime) { ++b; });
  sim.RunUntil(30);
  stop_a();
  sim.RunUntil(60);
  stop_b();
  sim.RunUntil(1000);
  EXPECT_EQ(a, 3);
  EXPECT_EQ(b, 6);
}

TEST(Simulator, PendingEventCountTracksQueue) {
  Simulator sim;
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.ScheduleAt(5, [] {});
  sim.ScheduleAt(6, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.RunAll();
  EXPECT_EQ(sim.pending_events(), 0u);
}

// ---- First-class periodic events -----------------------------------------

TEST(Simulator, StartPeriodicMatchesScheduleAfterChain) {
  // The in-place re-arm must order identically to the old pattern of the
  // callback re-scheduling itself: the next tick's sequence number is drawn
  // at fire time, so a same-timestamp one-shot scheduled earlier runs first
  // and one scheduled later (by a later event) runs after.
  auto run = [](bool first_class) {
    Simulator sim;
    std::vector<std::pair<SimTime, int>> order;
    if (first_class) {
      sim.StartPeriodic(10, 10, [&] { order.push_back({sim.Now(), 0}); });
    } else {
      struct Chain {
        Simulator* s;
        std::vector<std::pair<SimTime, int>>* order;
        void operator()() const {
          order->push_back({s->Now(), 0});
          s->ScheduleAfter(10, Chain{s, order});
        }
      };
      sim.ScheduleAt(10, Chain{&sim, &order});
    }
    // Competing one-shots at the tick timestamps, armed before and after.
    sim.ScheduleAt(20, [&] { order.push_back({sim.Now(), 1}); });
    sim.ScheduleAt(15, [&] {
      sim.ScheduleAt(30, [&] { order.push_back({sim.Now(), 2}); });
    });
    sim.RunUntil(45);
    return order;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Simulator, CancelStopsPeriodicFromOutside) {
  Simulator sim;
  int ticks = 0;
  const EventHandle h = sim.StartPeriodic(10, 10, [&] { ++ticks; });
  sim.RunUntil(35);
  EXPECT_EQ(ticks, 3);
  sim.Cancel(h);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.RunUntil(1000);
  EXPECT_EQ(ticks, 3);
}

TEST(Simulator, PeriodicCanCancelItselfMidTick) {
  Simulator sim;
  int ticks = 0;
  EventHandle h = kInvalidEvent;
  h = sim.StartPeriodic(10, 10, [&] {
    if (++ticks == 2) sim.Cancel(h);
  });
  sim.RunAll();
  EXPECT_EQ(ticks, 2);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, StaleHandleAfterSlotReuseIsNoOp) {
  Simulator sim;
  bool first = false;
  bool second = false;
  const EventHandle h1 = sim.ScheduleAt(10, [&] { first = true; });
  sim.Cancel(h1);  // frees the slot
  const EventHandle h2 = sim.ScheduleAt(20, [&] { second = true; });
  sim.Cancel(h1);  // stale generation: must NOT cancel the reused slot
  sim.RunAll();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
  EXPECT_NE(h1, h2);
}

TEST(Simulator, CancelOfFiredOneShotIsNoOp) {
  Simulator sim;
  EventHandle h = kInvalidEvent;
  bool later = false;
  h = sim.ScheduleAt(10, [] {});
  sim.ScheduleAt(20, [&] { later = true; });
  sim.RunUntil(15);
  sim.Cancel(h);  // already fired; slot may host another event by now
  sim.RunAll();
  EXPECT_TRUE(later);
}

TEST(Simulator, PendingExactAfterHeavyCancelChurn) {
  // Cancellation removes events immediately — no tombstones — so the
  // pending count stays exact through arbitrary cancel/re-schedule churn.
  Simulator sim;
  std::vector<EventHandle> pending;
  for (int i = 0; i < 100; ++i) {
    pending.push_back(sim.ScheduleAt(1000 + i, [] {}));
  }
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 100; i += 2) {
      sim.Cancel(pending[static_cast<std::size_t>(i)]);
      pending[static_cast<std::size_t>(i)] =
          sim.ScheduleAt(1000 + round, [] {});
    }
    EXPECT_EQ(sim.pending_events(), 100u);
  }
  sim.RunAll();
  EXPECT_EQ(sim.pending_events(), 0u);
  // Only the 100 live events plus what actually fired ran; churn executed
  // nothing extra.
  EXPECT_EQ(sim.executed_events(), 100u);
}

TEST(Simulator, SteadyStateSchedulingAllocatesNothing) {
  Simulator sim;
  // Warm-up grows the pool to its high-water mark.
  std::vector<EventHandle> pending;
  for (int i = 0; i < 64; ++i) {
    pending.push_back(sim.ScheduleAt(100 + i, [] {}));
  }
  const EventHandle tick = sim.StartPeriodic(50, 100, [] {});
  sim.RunUntil(200);
  const std::int64_t warm = sim.alloc_events();
  // Steady state: schedule/cancel/fire churn at the same concurrency.
  for (int round = 0; round < 200; ++round) {
    for (auto& h : pending) {
      sim.Cancel(h);
      h = sim.ScheduleAfter(100, [] {});
    }
    sim.RunUntil(sim.Now() + 10);
  }
  sim.Cancel(tick);  // a live periodic re-arms forever; RunAll must drain
  sim.RunAll();
  EXPECT_EQ(sim.alloc_events(), warm);
}

TEST(Simulator, OversizedCallbackCountsAsAllocEvent) {
  Simulator sim;
  const std::int64_t before = sim.alloc_events();
  struct Big {
    char payload[256];
  };
  Big big{};
  big.payload[0] = 1;
  bool ran = false;
  sim.ScheduleAt(10, [big, &ran] { ran = big.payload[0] == 1; });
  EXPECT_GE(sim.alloc_events(), before + 1);  // heap fallback is counted
  sim.RunAll();
  EXPECT_TRUE(ran);
}

TEST(Simulator, ReserveEventsPrewarmsPool) {
  Simulator sim;
  sim.ReserveEvents(128);
  const std::int64_t after_reserve = sim.alloc_events();
  for (int i = 0; i < 100; ++i) {
    sim.ScheduleAt(10 + i, [] {});
  }
  EXPECT_EQ(sim.alloc_events(), after_reserve);
  sim.RunAll();
}

// Seeded randomized differential test: the engine against a std::map model
// keyed on (when, seq), the total order the engine promises. Random
// ScheduleAt / ScheduleAfter / StartPeriodic calls, Cancel on live, fired,
// cancelled, slot-reused and garbage handles, RunUntil and Step; callbacks
// schedule children, cancel other events and stop their own periodic.
// Every firing must be the model's head, and pending_events() and
// NextEventTime() must match the model after every operation.
class HeapModel {
 public:
  explicit HeapModel(std::uint64_t seed) : rng_(seed) {}

  void Run(int ops) {
    for (int op = 0; op < ops; ++op) {
      const SimTime now = sim_.Now();
      switch (rng_.UniformInt(0, 9)) {
        case 0:
        case 1:
          Add(now + rng_.UniformInt(0, 60), 0, /*relative=*/false);
          break;
        case 2:
          Add(now + rng_.UniformInt(-10, 60), 0, /*relative=*/true);
          break;
        case 3:
          if (live_periodics_ < 6) {
            Add(now + rng_.UniformInt(0, 30), rng_.UniformInt(1, 25), false);
          }
          break;
        case 4:
        case 5:
          CancelRandom();
          break;
        case 6:
          sim_.Cancel(kInvalidEvent);
          sim_.Cancel((EventHandle{3} << 32) | 0xFFFFFFF0u);  // no such slot
          break;
        case 7:
        case 8: {
          const SimTime until = now + rng_.UniformInt(0, 40);
          const std::uint64_t before = fired_;
          const std::uint64_t ran = sim_.RunUntil(until);
          EXPECT_EQ(ran, fired_ - before);
          EXPECT_EQ(sim_.Now(), until);
          EXPECT_TRUE(model_.empty() || model_.begin()->first.first > until);
          break;
        }
        default: {
          const bool had = !model_.empty();
          const std::uint64_t before = fired_;
          const bool stepped = sim_.Step();
          EXPECT_EQ(stepped, had);
          EXPECT_EQ(fired_ - before, had ? 1u : 0u);
          break;
        }
      }
      CheckQueue();
      if (::testing::Test::HasFailure()) return;
    }
    // Drain: stop every periodic, then everything left must fire in order.
    for (std::size_t id = 0; id < events_.size(); ++id) {
      if (events_[id].period > 0) Cancel(id);
    }
    sim_.RunAll();
    EXPECT_TRUE(model_.empty());
    CheckQueue();
    EXPECT_EQ(sim_.executed_events(), fired_);
  }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;  // (when, seq)
  struct Event {
    EventHandle handle = kInvalidEvent;
    SimDuration period = 0;
    Key key;
    bool queued = false;
  };

  void Add(SimTime when, SimDuration period, bool relative) {
    const std::size_t id = events_.size();
    Event ev;
    ev.period = period;
    ev.key = {relative ? std::max(when, sim_.Now()) : when, next_seq_++};
    ev.queued = true;
    events_.push_back(ev);
    model_[ev.key] = id;
    auto cb = [this, id] { Fire(id); };
    if (period > 0) {
      ++live_periodics_;
      events_[id].handle = sim_.StartPeriodic(when, period, cb);
    } else if (relative) {
      events_[id].handle = sim_.ScheduleAfter(when - sim_.Now(), cb);
    } else {
      events_[id].handle = sim_.ScheduleAt(when, cb);
    }
  }

  void Cancel(std::size_t id) {
    Event& ev = events_[id];
    sim_.Cancel(ev.handle);
    if (id == firing_) stop_firing_ = true;
    if (!ev.queued) return;  // fired, cancelled, or mid-tick: a no-op
    model_.erase(ev.key);
    ev.queued = false;
    if (ev.period > 0) --live_periodics_;
  }

  void CancelRandom() {
    if (events_.empty()) return;
    Cancel(static_cast<std::size_t>(rng_.UniformInt(
        0, static_cast<std::int64_t>(events_.size()) - 1)));
  }

  void Fire(std::size_t id) {
    ASSERT_FALSE(model_.empty());
    const auto head = model_.begin();
    EXPECT_EQ(head->second, id);
    EXPECT_EQ(head->first.first, sim_.Now());
    Event& ev = events_[id];
    model_.erase(ev.key);
    ev.queued = false;
    ++fired_;
    firing_ = id;
    stop_firing_ = false;
    if (events_.size() < 4000 && rng_.Bernoulli(0.3)) {
      Add(sim_.Now() + rng_.UniformInt(0, 30), 0, /*relative=*/false);
    }
    if (rng_.Bernoulli(0.1)) CancelRandom();
    const SimDuration period = events_[id].period;
    if (period > 0 && !stop_firing_ && rng_.Bernoulli(0.1)) Cancel(id);
    firing_ = kNone;
    if (period == 0) return;
    if (stop_firing_) {
      --live_periodics_;
      return;
    }
    // The engine re-arms after the callback returns, taking the next seq.
    Event& again = events_[id];
    again.key = {sim_.Now() + period, next_seq_++};
    again.queued = true;
    model_[again.key] = id;
  }

  void CheckQueue() {
    EXPECT_EQ(sim_.pending_events(), model_.size());
    EXPECT_EQ(sim_.NextEventTime(), model_.empty()
                                        ? Simulator::kNoEvent
                                        : model_.begin()->first.first);
  }

  static constexpr std::size_t kNone = SIZE_MAX;
  Simulator sim_;
  Rng rng_;
  std::vector<Event> events_;
  std::map<Key, std::size_t> model_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  int live_periodics_ = 0;
  std::size_t firing_ = kNone;
  bool stop_firing_ = false;
};

TEST(Simulator, RandomizedDifferentialAgainstOrderedModel) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 42ull, 9001ull}) {
    SCOPED_TRACE(seed);
    HeapModel model(seed);
    model.Run(5000);
  }
}

}  // namespace
}  // namespace tango::sim
