#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

#include "support/counting_alloc.h"

namespace memca {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(msec(30), [&] { order.push_back(3); });
  sim.schedule_at(msec(10), [&] { order.push_back(1); });
  sim.schedule_at(msec(20), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SameTimeEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(msec(5), [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NowAdvancesToEventTime) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule_at(msec(42), [&] { seen = sim.now(); });
  sim.run_all();
  EXPECT_EQ(seen, msec(42));
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(msec(10), [&] { ++fired; });
  sim.schedule_at(msec(20), [&] { ++fired; });
  sim.schedule_at(msec(21), [&] { ++fired; });
  sim.run_until(msec(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), msec(20));
  sim.run_until(msec(30));
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunForIsRelative) {
  Simulator sim;
  sim.run_for(msec(10));
  EXPECT_EQ(sim.now(), msec(10));
  sim.run_for(msec(10));
  EXPECT_EQ(sim.now(), msec(20));
}

TEST(Simulator, ScheduleInIsRelativeToNow) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.schedule_at(msec(10), [&] {
    sim.schedule_in(msec(5), [&] { fired_at = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(fired_at, msec(15));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.schedule_at(msec(10), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run_all();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.schedule_at(msec(10), [&] { ++fired; });
  sim.run_all();
  EXPECT_FALSE(h.pending());
  h.cancel();
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_in(msec(1), recurse);
  };
  sim.schedule_in(msec(1), recurse);
  sim.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), msec(5));
}

TEST(Simulator, ZeroDelayFiresAtSameTime) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.schedule_at(msec(7), [&] {
    sim.schedule_in(0, [&] { fired_at = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(fired_at, msec(7));
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 17; ++i) sim.schedule_at(msec(i), [] {});
  sim.run_all();
  EXPECT_EQ(sim.events_executed(), 17u);
}

TEST(Simulator, PendingEventsCountsOnlyLiveEvents) {
  Simulator sim;
  EventHandle a = sim.schedule_at(msec(10), [] {});
  sim.schedule_at(msec(20), [] {});
  sim.schedule_at(msec(30), [] {});
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  a.cancel();
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.cancelled_pending(), 1u);
  sim.run_all();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulator, SlotReuseAfterCancelKeepsHandlesDistinct) {
  Simulator sim;
  int first = 0;
  int second = 0;
  EventHandle a = sim.schedule_at(msec(10), [&first] { ++first; });
  a.cancel();
  // The new event recycles the cancelled event's slot; the old handle must
  // not alias it (the generation/seq check distinguishes occupants).
  EventHandle b = sim.schedule_at(msec(20), [&second] { ++second; });
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(b.pending());
  a.cancel();  // must not cancel b
  EXPECT_TRUE(b.pending());
  sim.run_all();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_FALSE(b.pending());
}

TEST(Simulator, HandleFromFiredEventDoesNotAliasSlotReuse) {
  Simulator sim;
  int late = 0;
  EventHandle a = sim.schedule_at(msec(10), [] {});
  sim.run_all();  // `a` fired; its slot is free
  EventHandle b = sim.schedule_at(msec(20), [&late] { ++late; });
  EXPECT_FALSE(a.pending());
  a.cancel();  // stale handle: must not touch b's event
  EXPECT_TRUE(b.pending());
  sim.run_all();
  EXPECT_EQ(late, 1);
}

TEST(Simulator, CompactionSweepsCancelledHeapEntries) {
  Simulator sim;
  int fired = 0;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(sim.schedule_at(msec(i + 1), [&fired] { ++fired; }));
  }
  for (int i = 0; i < 1000; ++i) {
    if (i % 10 != 0) handles[static_cast<std::size_t>(i)].cancel();
  }
  // 900 of 1000 entries were cancelled; lazy compaction must have swept the
  // heap once cancelled entries outnumbered live ones.
  EXPECT_EQ(sim.pending_events(), 100u);
  EXPECT_LT(sim.cancelled_pending(), 500u);
  sim.run_all();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(sim.events_executed(), 100u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
}

TEST(Simulator, CompactionPreservesFiringOrder) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 200; ++i) {
    handles.push_back(sim.schedule_at(msec(200 - i), [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 200; ++i) {
    if (i % 2 == 0) handles[static_cast<std::size_t>(i)].cancel();  // forces a compaction
  }
  sim.run_all();
  // Survivors are the odd i, scheduled at time 200 - i: they must fire in
  // decreasing i (increasing time) despite the heap rebuild.
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t k = 0; k + 1 < order.size(); ++k) EXPECT_GT(order[k], order[k + 1]);
}

TEST(Simulator, ManyCancelScheduleCyclesRecycleSlots) {
  Simulator sim;
  for (int i = 0; i < 10000; ++i) {
    EventHandle h = sim.schedule_at(msec(1), [] {});
    h.cancel();
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  int fired = 0;
  sim.schedule_at(msec(2), [&fired] { ++fired; });
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelDuringCallbackAffectsLaterEvent) {
  Simulator sim;
  bool second_fired = false;
  EventHandle second;
  sim.schedule_at(msec(10), [&] { second.cancel(); });
  second = sim.schedule_at(msec(20), [&] { second_fired = true; });
  sim.run_all();
  EXPECT_FALSE(second_fired);
  EXPECT_EQ(sim.events_executed(), 1u);
}

// -- bulk cancel -------------------------------------------------------------

TEST(SimulatorBulkCancel, WheelParkedTimersLeavePendingBalanced) {
  // RTO-style timers park in the timing wheel (delay >= the wheel routing
  // threshold). A bulk cancel must settle live/cancelled counts in one pass
  // and leave nothing to fire.
  Simulator sim;
  std::vector<EventHandle> timers;
  int fired = 0;
  for (int i = 0; i < 16; ++i) {
    timers.push_back(sim.schedule_in(sec(std::int64_t{1}) + msec(i), [&] { ++fired; }));
  }
  EXPECT_EQ(sim.pending_events(), 16u);
  sim.cancel_bulk(timers.data(), timers.size());
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_all();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
}

TEST(SimulatorBulkCancel, SkipsFiredCancelledAndEmptyHandles) {
  Simulator sim;
  int fired = 0;
  std::vector<EventHandle> handles;
  handles.push_back(sim.schedule_at(msec(1), [&] { ++fired; }));   // will fire first
  handles.push_back(sim.schedule_at(msec(10), [&] { ++fired; }));  // cancelled twice
  handles.push_back(EventHandle{});                                // inert
  handles.push_back(sim.schedule_at(sec(std::int64_t{2}), [&] { ++fired; }));  // wheel
  handles.push_back(sim.schedule_at(msec(20), [&] { ++fired; }));  // heap
  sim.run_until(msec(1));
  handles[1].cancel();
  sim.cancel_bulk(handles.data(), handles.size());
  sim.run_all();
  // Only the already-fired event executed; every live handle in the span
  // died, and re-cancelling the stale ones was a no-op.
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
}

TEST(SimulatorBulkCancel, RepeatBulkCancelAllocatesNothing) {
  // Steady-state contract: once the arena and wheel are warm, a bulk cancel
  // of wheel-parked timers is allocation-free (the counting-allocator gate
  // the snapshot and flight-recorder paths also hold themselves to).
  Simulator sim;
  std::vector<EventHandle> timers;
  for (int round = 0; round < 2; ++round) {
    timers.clear();
    for (int i = 0; i < 8; ++i) {
      timers.push_back(sim.schedule_in(sec(std::int64_t{1}), [] {}));
    }
    if (round == 0) {
      sim.cancel_bulk(timers.data(), timers.size());
    } else {
      tests::ScopedAllocationCounter counter;
      sim.cancel_bulk(timers.data(), timers.size());
      EXPECT_EQ(counter.count(), 0);
    }
    sim.run_all();
  }
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(PeriodicTask, FiresAtFixedPeriod) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTask task(sim, msec(100), [&] { fires.push_back(sim.now()); });
  sim.run_until(msec(350));
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], msec(100));
  EXPECT_EQ(fires[1], msec(200));
  EXPECT_EQ(fires[2], msec(300));
}

TEST(PeriodicTask, FireImmediatelyOption) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTask task(sim, msec(100), [&] { fires.push_back(sim.now()); },
                    /*fire_immediately=*/true);
  sim.run_until(msec(250));
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], 0);
}

TEST(PeriodicTask, StopHaltsFiring) {
  Simulator sim;
  int fires = 0;
  PeriodicTask task(sim, msec(100), [&] {
    if (++fires == 2) task.stop();
  });
  sim.run_until(sec(std::int64_t{1}));
  EXPECT_EQ(fires, 2);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, SetPeriodTakesEffectAfterNextFiring) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTask task(sim, msec(100), [&] { fires.push_back(sim.now()); });
  sim.run_until(msec(100));
  task.set_period(msec(50));
  sim.run_until(msec(260));
  // The firing at 200 was already armed with the old period; the new 50 ms
  // period applies from there on: 100, 200, 250.
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[1], msec(200));
  EXPECT_EQ(fires[2], msec(250));
}

TEST(PeriodicTaskDeathTest, SetPeriodRejectsNonPositive) {
  Simulator sim;
  PeriodicTask task(sim, msec(100), [] {});
  EXPECT_DEATH(task.set_period(0), "period must be positive");
  EXPECT_DEATH(task.set_period(-msec(5)), "period must be positive");
}

TEST(PeriodicTask, DestructorCancels) {
  Simulator sim;
  int fires = 0;
  {
    PeriodicTask task(sim, msec(10), [&] { ++fires; });
  }
  sim.run_until(msec(100));
  EXPECT_EQ(fires, 0);
}

}  // namespace
}  // namespace memca
