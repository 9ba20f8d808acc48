// Timing-wheel behaviour of the Simulator: coarse timers (>= kWheelMinDelay,
// i.e. ~131 ms) park in the hierarchical wheel instead of the arrival heap.
// These tests pin the routing threshold, the cascade across wheel levels,
// cancellation of parked timers, and — the property everything else rests
// on — that wheel-parked events fire in exactly the same (time, seq) order
// as heap-scheduled ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace memca {
namespace {

TEST(TimingWheel, LongDelaysParkInWheelShortOnesDoNot) {
  Simulator sim;
  sim.schedule_in(msec(100), [] {});  // under the ~131 ms threshold: heap
  EXPECT_EQ(sim.wheel_pending(), 0u);
  sim.schedule_in(sec(std::int64_t{1}), [] {});  // classic RTO delay: wheel
  EXPECT_EQ(sim.wheel_pending(), 1u);
  sim.schedule_in(sec(std::int64_t{7}), [] {});  // think-time delay: wheel
  EXPECT_EQ(sim.wheel_pending(), 2u);
  sim.run_all();
  EXPECT_EQ(sim.wheel_pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(TimingWheel, FiresAtExactScheduledTime) {
  Simulator sim;
  std::vector<SimTime> fired;
  for (SimTime delay : {sec(std::int64_t{1}), msec(1500), sec(std::int64_t{120}),
                        sec(std::int64_t{3000})}) {
    sim.schedule_in(delay, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.run_all();
  EXPECT_EQ(fired, (std::vector<SimTime>{sec(std::int64_t{1}), msec(1500),
                                         sec(std::int64_t{120}), sec(std::int64_t{3000})}))
      << "wheel timers must fire at their exact scheduled instant";
}

TEST(TimingWheel, OrderMatchesHeapSemanticsAcrossMixedDelays) {
  // Interleave short (heap) and long (wheel) timers whose absolute times
  // shuffle across the two structures; the firing order must be the global
  // (time, seq) order regardless of which structure held each timer.
  Simulator sim;
  std::vector<std::pair<SimTime, int>> fired;
  int tag = 0;
  auto add = [&](SimTime delay) {
    const int t = tag++;
    sim.schedule_in(delay, [&fired, &sim, t] { fired.emplace_back(sim.now(), t); });
  };
  add(sec(std::int64_t{2}));   // wheel
  add(msec(50));               // heap
  add(msec(200));              // wheel (just over threshold)
  add(sec(std::int64_t{2}));   // wheel, same instant as tag 0 -> after it
  add(msec(130));              // heap (just under threshold)
  add(sec(std::int64_t{300})); // wheel level 2
  sim.run_all();
  const std::vector<std::pair<SimTime, int>> expected = {
      {msec(50), 1},  {msec(130), 4},          {msec(200), 2},
      {sec(std::int64_t{2}), 0}, {sec(std::int64_t{2}), 3}, {sec(std::int64_t{300}), 5},
  };
  EXPECT_EQ(fired, expected);
}

TEST(TimingWheel, SameInstantTieBreaksByScheduleOrderAcrossStructures) {
  // Two events at the same absolute time, one routed to the wheel (long
  // delay) and one scheduled later from closer range into the heap: the
  // wheel one was scheduled first, so it must fire first.
  Simulator sim;
  std::vector<int> order;
  const SimTime t = sec(std::int64_t{1});
  sim.schedule_at(t, [&order] { order.push_back(0); });  // wheel (delay 1 s)
  sim.run_until(t - msec(10));
  sim.schedule_at(t, [&order] { order.push_back(1); });  // heap (delay 10 ms)
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(TimingWheel, CancelledParkedTimerNeverFires) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.schedule_in(sec(std::int64_t{5}), [&fired] { ++fired; });
  EXPECT_EQ(sim.wheel_pending(), 1u);
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run_all();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.wheel_pending(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(TimingWheel, MassCancellationIsSweptByCompaction) {
  // The RTO population shape: thousands of parked timers, nearly all
  // cancelled before firing. The compaction sweep must reclaim the wheel
  // entries (not just heap entries), so the stale population stays bounded.
  Simulator sim;
  int fired = 0;
  std::vector<EventHandle> handles;
  handles.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    handles.push_back(
        sim.schedule_in(sec(std::int64_t{1}) + msec(i % 3000), [&fired] { ++fired; }));
  }
  for (int i = 0; i < 10000; ++i) {
    if (i % 100 != 0) handles[static_cast<std::size_t>(i)].cancel();
  }
  // After cancelling 99% of 10k timers, compaction has certainly run; the
  // wheel must not still hold ~9.9k stale entries.
  EXPECT_LT(sim.wheel_pending(), 1000u);
  sim.run_all();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(sim.wheel_pending(), 0u);
}

TEST(TimingWheel, CascadesAcrossAllLevels) {
  // One timer per wheel level plus one past the horizon (heap fallback);
  // each must fire exactly at its instant after cascading down.
  Simulator sim;
  std::vector<SimTime> fired;
  const std::vector<SimTime> delays = {
      msec(500),                 // level 0
      sec(std::int64_t{60}),     // level 1 (65.5 ms .. 4.19 s per tick)
      sec(std::int64_t{1000}),   // level 2
      sec(std::int64_t{30000}),  // past the ~4.77 h horizon: heap fallback
  };
  for (SimTime d : delays) {
    sim.schedule_in(d, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  EXPECT_EQ(sim.wheel_pending(), 3u);  // horizon overflow went to the heap
  sim.run_all();
  EXPECT_EQ(fired, delays);
}

TEST(TimingWheel, RunUntilLeavesParkedTimersIntact) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(sec(std::int64_t{10}), [&fired] { ++fired; });
  sim.run_until(sec(std::int64_t{9}));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.wheel_pending(), 1u);
  sim.run_until(sec(std::int64_t{10}));  // boundary inclusive
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.wheel_pending(), 0u);
}

TEST(TimingWheel, ReinsertionAfterIdlePeriodsStaysCorrect) {
  // Exercises the empty-wheel frontier snap: park, drain, advance time far,
  // park again. A stale frontier would misfile the second timer.
  Simulator sim;
  std::vector<SimTime> fired;
  sim.schedule_in(sec(std::int64_t{1}), [&fired, &sim] { fired.push_back(sim.now()); });
  sim.run_all();
  sim.run_until(sec(std::int64_t{5000}));  // long idle gap, empty wheel
  sim.schedule_in(sec(std::int64_t{2}), [&fired, &sim] { fired.push_back(sim.now()); });
  EXPECT_EQ(sim.wheel_pending(), 1u);
  sim.run_all();
  EXPECT_EQ(fired, (std::vector<SimTime>{sec(std::int64_t{1}), sec(std::int64_t{5002})}));
}

TEST(TimingWheel, MisalignedFrontierNearLevelWindowBoundary) {
  // Regression: level selection used the raw time delta from the frontier
  // while the bucket index came from absolute time. After the 200 ms timer
  // below fires, the frontier sits at 262144 us — one level-0 tick past the
  // flushed bucket, not aligned to a level-1 (2^22 us) boundary. A timer
  // whose delta is just under the level-1 window (2^28 us) then wrapped all
  // 64 buckets onto the frontier's own bucket and was silently dropped by
  // the cascade: it never fired and leaked in pending_events(). Tick-space
  // level selection must file it one level up and fire it exactly on time.
  Simulator sim;
  std::vector<SimTime> fired;
  auto record = [&fired, &sim] { fired.push_back(sim.now()); };
  sim.schedule_in(msec(200), record);               // misaligns the frontier
  sim.schedule_in(sec(std::int64_t{400}), record);  // keeps the wheel occupied
  sim.run_until(msec(200));
  const SimTime target = msec(268500);  // delta from frontier: 2^28 - 197856 us
  sim.schedule_at(target, record);
  sim.run_all();
  EXPECT_EQ(fired,
            (std::vector<SimTime>{msec(200), target, sec(std::int64_t{400})}));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.wheel_pending(), 0u);
}

TEST(TimingWheel, ReleasedBucketJoinsTheSortedRunNotTheHeap) {
  // A level-0 bucket the frontier reaches is sorted once and merged into the
  // sorted run; none of its timers pass through the arrival heap, and the
  // entries cancelled while parked are dropped (and settled) on the way.
  Simulator sim;
  const SimTime tick = SimTime{1} << 16;  // the wheel's level-0 tick
  const SimTime start = 4 * tick;         // a level-0 bucket seen from t = 0
  std::vector<SimTime> times;
  for (int i = 0; i < 50; ++i) {
    // Strictly inside the bucket, with a few same-instant ties.
    times.push_back(start + 2 + (i % 40) * 1'531);
  }
  std::shuffle(times.begin(), times.end(), std::mt19937(7));
  std::vector<EventHandle> timers;
  for (SimTime t : times) timers.push_back(sim.schedule_at(t, [] {}));
  ASSERT_EQ(sim.wheel_pending(), 50u);
  for (std::size_t i : {3u, 17u, 40u, 41u}) timers[i].cancel();
  EXPECT_EQ(sim.cancelled_pending(), 4u);

  // Two short events from close range go to the heap: one fires before the
  // bucket, one stays pending past it.
  sim.run_until(start - msec(50));
  sim.schedule_at(start - 1, [] {});
  const SimTime late = start + tick + msec(10);
  sim.schedule_at(late, [] {});
  ASSERT_EQ(sim.wheel_pending(), 50u);

  sim.run_until(start + 1);
  EXPECT_EQ(sim.wheel_pending(), 0u);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  EXPECT_EQ(sim.pending_events(), 47u);

  Simulator::Snapshot snap;
  sim.capture(snap);
  EXPECT_EQ(snap.cancelled_pending, 0u);
  ASSERT_EQ(snap.heap.size(), 1u);
  EXPECT_EQ(snap.heap[0].time, late);
  ASSERT_EQ(snap.sorted.size(), 46u);
  std::vector<SimTime> live;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (timers[i].pending()) live.push_back(times[i]);
  }
  std::sort(live.begin(), live.end());
  for (std::size_t i = 0; i < snap.sorted.size(); ++i) {
    EXPECT_EQ(snap.sorted[i].time, live[i]) << "run entry " << i;
    if (i > 0 && snap.sorted[i].time == snap.sorted[i - 1].time) {
      EXPECT_LT(snap.sorted[i - 1].seq, snap.sorted[i].seq) << "tie order at " << i;
    }
  }
  sim.run_all();
  EXPECT_EQ(sim.events_executed(), 48u);
}

TEST(TimingWheel, PeriodicCoarseTickUsesWheelAndStaysExact) {
  // A 1 s periodic task re-arms through the wheel every firing; 100 firings
  // must land exactly on the second marks (no drift from bucket rounding).
  Simulator sim;
  std::vector<SimTime> ticks;
  PeriodicTask task(sim, sec(std::int64_t{1}), [&ticks, &sim] { ticks.push_back(sim.now()); });
  sim.run_until(sec(std::int64_t{100}));
  ASSERT_EQ(ticks.size(), 100u);
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    EXPECT_EQ(ticks[i], sec(static_cast<std::int64_t>(i + 1)));
  }
}

TEST(TimingWheel, ReservedSeqFiresWhereItWasReserved) {
  // An event scheduled late under a seq reserved early sorts among its
  // same-instant peers by that seq: after an event scheduled before the
  // reservation, before one scheduled between the reservation and the late
  // scheduling. Whichever stage parks it: the heap (short delay), the wheel,
  // or the heap again past the wheel's ~4.77 h horizon.
  for (const SimTime delay :
       {msec(60), sec(std::int64_t{3}), sec(std::int64_t{6 * 3600})}) {
    SCOPED_TRACE("delay " + format_time(delay));
    Simulator sim;
    std::vector<int> order;
    sim.run_until(msec(10));
    const SimTime when = sim.now() + delay;
    sim.schedule_at(when, [&order] { order.push_back(0); });
    const std::uint64_t seq = sim.reserve_seq();
    sim.schedule_at(when, [&order] { order.push_back(2); });
    // The late scheduling happens from inside an event 5 ms on.
    sim.schedule_in(msec(5), [&sim, &order, when, seq] {
      sim.schedule_reserved(when, seq, [&order] { order.push_back(1); });
    });
    sim.run_all();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(sim.now(), when);
    EXPECT_EQ(sim.events_executed(), 4u);
  }
}

TEST(TimingWheel, ReservedSeqMayLieAtNowWhenNothingBehindItFired) {
  // The clock moved to 1 s with no event fired, so nothing at now() lies
  // behind the seq reserved at 0: it may be scheduled at now(), and fires
  // before a later-seq peer at the same instant.
  Simulator sim;
  std::vector<int> order;
  const std::uint64_t seq = sim.reserve_seq();
  sim.run_until(sec(std::int64_t{1}));
  sim.schedule_at(sim.now(), [&order] { order.push_back(1); });
  sim.schedule_reserved(sim.now(), seq, [&order] { order.push_back(0); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(TimingWheel, FirstAtNowSeesTheHeapFrontAndTheRunHead) {
  // Inside an event at t, a seq reserved between it and a same-instant peer
  // comes first; one reserved after the peer does not. The peer waits in
  // the arrival heap after a short delay, and in the sorted run after a
  // long one (the wheel releases both events' bucket into the run, and the
  // first fires from it).
  for (const SimTime delay : {msec(60), sec(std::int64_t{2})}) {
    SCOPED_TRACE("delay " + format_time(delay));
    Simulator sim;
    std::uint64_t between = 0;
    std::uint64_t after = 0;
    bool between_first = false;
    bool after_first = true;
    sim.schedule_in(delay, [&] {
      between_first = sim.first_at_now(between);
      after_first = sim.first_at_now(after);
    });
    between = sim.reserve_seq();
    sim.schedule_in(delay, [] {});
    after = sim.reserve_seq();
    EXPECT_EQ(sim.wheel_pending(), delay > msec(131) ? 2u : 0u);
    sim.run_all();
    EXPECT_TRUE(between_first);
    EXPECT_FALSE(after_first);
    EXPECT_EQ(sim.events_executed(), 2u);
  }
}

TEST(TimingWheel, FirstAtNowCountsACancelledHead) {
  // A peer cancelled from inside the event still heads the heap as a stale
  // entry: the query answers "no", as it may, never a wrong "yes".
  Simulator sim;
  EventHandle peer;
  std::uint64_t after = 0;
  bool first = true;
  sim.schedule_at(msec(10), [&] {
    peer.cancel();
    first = sim.first_at_now(after);
  });
  peer = sim.schedule_at(msec(10), [] {});
  after = sim.reserve_seq();
  sim.run_all();
  EXPECT_FALSE(first);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(TimingWheel, FirstAtNowLooksPastLaterEvents) {
  // Only later events are queued — at the same instant with a larger seq,
  // later in the heap, later in the wheel — so the reserved seq comes first.
  Simulator sim;
  std::uint64_t reserved = 0;
  bool first = false;
  sim.schedule_at(msec(10), [&] { first = sim.first_at_now(reserved); });
  reserved = sim.reserve_seq();
  sim.schedule_at(msec(10), [] {});
  sim.schedule_at(msec(11), [] {});
  sim.schedule_at(sec(std::int64_t{2}), [] {});
  sim.run_all();
  EXPECT_TRUE(first);
}

TEST(TimingWheelDeathTest, ReservedSeqMustLieAheadAndBeReserved) {
  // At the present instant an event with a larger seq may already have
  // fired: a seq reserved before it may neither be scheduled at now() nor
  // run inline there.
  {
    Simulator sim;
    const std::uint64_t seq = sim.reserve_seq();
    sim.schedule_at(sec(std::int64_t{1}), [] {});
    sim.run_until(sec(std::int64_t{1}));
    EXPECT_DEATH(sim.schedule_reserved(sim.now(), seq, [] {}),
                 "after the event that fired last");
    EXPECT_DEATH(sim.consume_reserved(seq), "after the event that fired last");
  }
  // A seq not handed out yet, and one a plain event already used.
  {
    Simulator sim;
    const std::uint64_t seq = sim.reserve_seq();
    EXPECT_DEATH(sim.schedule_reserved(sec(std::int64_t{1}), seq + 1, [] {}),
                 "never reserved");
  }
  {
    Simulator sim;
    sim.schedule_in(sec(std::int64_t{1}), [] {});
    EXPECT_DEATH(sim.schedule_reserved(sec(std::int64_t{2}), 0, [] {}), "never reserved");
    EXPECT_DEATH(sim.consume_reserved(0), "never reserved");
  }
}

}  // namespace
}  // namespace memca
