// Differential oracle for the event engine: a seeded generator drives one
// Simulator and a reference ordered set of (time, seq, id) side by side.
//
// The reference is the pure-heap semantics the engine promises: every event
// fires at its scheduled instant, in (time, scheduling order), whichever of
// the arrival heap, the sorted run or the timing wheel held it. The generator
// mixes delays that land in every stage (zero, heap range, both sides of the
// wheel threshold, each wheel level, exact level-window and bucket edges,
// past the ~4.77 h horizon); callbacks schedule and cancel further events,
// bulk cancels trigger compaction, and run_until stops at random limits,
// including limits inside a level-0 bucket that has just been released.
// Some events take their seq early (reserve_seq) and are scheduled later
// (schedule_reserved), from a callback or between runs but always before
// their instant: the reference keys them by the reserved seq, so they must
// fire among same-instant events where the reservation put them. Callbacks
// also reserve events at the current instant and settle them before they
// return, lowest seq first: inline (consume_reserved) when first_at_now()
// says nothing queued comes first, else scheduled at now(). The query must
// never say "first" while the reference holds an earlier live event, and
// callbacks probe it with random seqs too.
// Each seed also captures the engine at a random instant, runs on, restores
// and replays: the replay must reproduce the first pass, and restoring
// allocates nothing.
//
// A failure names its seed and pass in the trace output, and the error
// string names the first event that diverged from the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "support/counting_alloc.h"

namespace memca {
namespace {

// The engine's wheel geometry (private to Simulator): 2^16 us level-0 tick,
// 64 buckets per level, three levels, heap routing below two ticks.
constexpr int kTickShift = 16;
constexpr int kLevelBits = 6;
constexpr SimTime kTick = SimTime{1} << kTickShift;
constexpr SimTime kWheelMinDelay = 2 * kTick;
constexpr SimTime kLevelWindow[3] = {
    SimTime{1} << (kTickShift + kLevelBits),
    SimTime{1} << (kTickShift + 2 * kLevelBits),
    SimTime{1} << (kTickShift + 3 * kLevelBits),  // the horizon, ~4.77 h
};

/// splitmix64: tiny, copyable state, so a model checkpoint copies it whole.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::int64_t below(std::int64_t n) {
    return static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(n));
  }
  bool one_in(std::int64_t n) { return below(n) == 0; }
};

/// Everything the generator knows besides the engine; a checkpoint copies it.
struct Model {
  Rng rng{0};
  /// The reference queue: (time, seq, id) of every pending event.
  std::set<std::tuple<SimTime, std::uint64_t, int>> pending;
  std::vector<EventHandle> handle;                       // by id
  std::vector<std::pair<SimTime, std::uint64_t>> key;    // by id
  std::vector<int> live;                                 // scheduled pending ids
  std::vector<int> live_pos;                             // by id; -1 unless live
  std::vector<int> deferred;                             // reserved, not yet scheduled
  std::uint64_t next_seq = 0;
  std::uint64_t fired = 0;
  /// Events reserved at a callback's instant: run inline, or scheduled at
  /// now() because the engine held an earlier event.
  std::uint64_t ran_inline = 0;
  std::uint64_t scheduled_at_now = 0;
  bool spawning = true;
  std::vector<std::pair<int, SimTime>> log;              // (id, now) per fire
};

class Oracle {
 public:
  static constexpr std::size_t kTargetPending = 150;
  static constexpr std::uint64_t kFireBudget = 1200;
  static constexpr int kSteps = 80;

  explicit Oracle(std::uint64_t seed) { m.rng.state = seed; }

  Simulator sim;
  Model m;
  /// First divergence between engine and reference; empty while they agree.
  std::string error;

  void seed_events(int n) {
    for (int i = 0; i < n; ++i) schedule(draw_delay());
  }

  /// Runs generator steps [from, kSteps), then stops spawning and drains.
  void run_from(int from) {
    for (int step = from; step < kSteps && error.empty(); ++step) this->step();
    m.spawning = false;
    while (!m.deferred.empty()) schedule_deferred(m.deferred.size() - 1);
    sim.run_all();
    check_counters("run_all");
    if (error.empty() && !m.pending.empty()) error = "run_all left reference events";
  }

  void step() {
    limit_ = sim.now();
    if (m.rng.one_in(3)) act();  // scheduling and cancelling between runs too
    const SimTime limit = pick_limit();
    // A reserved event must be scheduled before the run reaches its instant.
    for (std::size_t i = 0; i < m.deferred.size();) {
      if (m.key[static_cast<std::size_t>(m.deferred[i])].first <= limit) {
        schedule_deferred(i);
      } else {
        ++i;
      }
    }
    limit_ = limit;
    sim.run_until(limit);
    if (error.empty() && sim.now() != limit) {
      error = "run_until(" + std::to_string(limit) + ") left now() at " +
              std::to_string(sim.now());
    }
    check_counters("run_until(" + std::to_string(limit) + ")");
  }

 private:
  /// The running run_until's limit, or now() between runs: an event
  /// reserved from a callback must lie past it, so that the next step
  /// schedules it before the engine reaches its instant.
  SimTime limit_ = 0;

  void schedule(SimTime delay) {
    const int id = static_cast<int>(m.handle.size());
    const SimTime when = sim.now() + delay;
    m.handle.push_back(sim.schedule_at(when, [this, id] { on_fire(id); }));
    m.key.emplace_back(when, m.next_seq);
    m.pending.emplace(when, m.next_seq, id);
    ++m.next_seq;
    m.live_pos.push_back(static_cast<int>(m.live.size()));
    m.live.push_back(id);
  }

  /// Takes a seq for an event at now + delay without scheduling it.
  void reserve(SimTime delay) {
    const SimTime when = sim.now() + delay;
    if (when <= limit_) return;
    const int id = static_cast<int>(m.handle.size());
    const std::uint64_t seq = sim.reserve_seq();
    if (error.empty() && seq != m.next_seq) {
      error = "reserve_seq() returned " + std::to_string(seq) + ", reference " +
              std::to_string(m.next_seq);
    }
    m.handle.emplace_back();
    m.key.emplace_back(when, m.next_seq);
    m.pending.emplace(when, m.next_seq, id);
    ++m.next_seq;
    m.live_pos.push_back(-1);
    m.deferred.push_back(id);
  }

  /// Takes a seq for an event at the current instant; the callback settles
  /// it before returning (run_due_now).
  void reserve_now() {
    const int id = static_cast<int>(m.handle.size());
    const std::uint64_t seq = sim.reserve_seq();
    if (error.empty() && seq != m.next_seq) {
      error = "reserve_seq() returned " + std::to_string(seq) + ", reference " +
              std::to_string(m.next_seq);
    }
    m.handle.emplace_back();
    m.key.emplace_back(sim.now(), m.next_seq);
    m.pending.emplace(sim.now(), m.next_seq, id);
    ++m.next_seq;
    m.live_pos.push_back(-1);
    m.deferred.push_back(id);
  }

  /// Settles the events reserved at this instant, lowest seq first: inline
  /// when the engine says nothing queued comes first (the reference must
  /// agree), else scheduled at now(). Inline work may reserve more.
  void run_due_now() {
    const SimTime now = sim.now();
    for (;;) {
      std::size_t best = m.deferred.size();
      for (std::size_t i = 0; i < m.deferred.size(); ++i) {
        const auto& key = m.key[static_cast<std::size_t>(m.deferred[i])];
        if (key.first == now &&
            (best == m.deferred.size() ||
             key.second < m.key[static_cast<std::size_t>(m.deferred[best])].second)) {
          best = i;
        }
      }
      if (best == m.deferred.size()) return;
      const int id = m.deferred[best];
      const std::uint64_t seq = m.key[static_cast<std::size_t>(id)].second;
      if (!sim.first_at_now(seq)) {
        ++m.scheduled_at_now;
        schedule_deferred(best);
        continue;
      }
      if (error.empty() && std::get<2>(*m.pending.begin()) != id) {
        error = "first_at_now(" + std::to_string(seq) + ") at " + std::to_string(now) +
                " said first behind reference id " +
                std::to_string(std::get<2>(*m.pending.begin()));
      }
      m.deferred[best] = m.deferred.back();
      m.deferred.pop_back();
      m.pending.erase({now, seq, id});
      sim.consume_reserved(seq);
      m.log.emplace_back(id, now);
      ++m.ran_inline;
      act(/*firing=*/true);
    }
  }

  /// first_at_now() with a random seq: "first" must mean that no live
  /// reference event lies before (now(), seq).
  void probe_first_at_now() {
    const auto seq = static_cast<std::uint64_t>(
        m.rng.below(static_cast<std::int64_t>(m.next_seq) + 1));
    if (!sim.first_at_now(seq)) return;
    for (const auto& [when, s, id] : m.pending) {
      if (std::make_pair(when, s) > std::make_pair(sim.now(), seq)) return;
      if (m.live_pos[static_cast<std::size_t>(id)] >= 0) {
        if (error.empty()) {
          error = "first_at_now(" + std::to_string(seq) + ") at " +
                  std::to_string(sim.now()) + " said first behind live id " +
                  std::to_string(id);
        }
        return;
      }
    }
  }

  /// Schedules the reserved event m.deferred[i] under its seq.
  void schedule_deferred(std::size_t i) {
    const int id = m.deferred[i];
    m.deferred[i] = m.deferred.back();
    m.deferred.pop_back();
    const auto [when, seq] = m.key[static_cast<std::size_t>(id)];
    if (error.empty() && when < sim.now()) {
      error = "reserved id " + std::to_string(id) + " overdue at " + std::to_string(sim.now());
      return;
    }
    m.handle[static_cast<std::size_t>(id)] =
        sim.schedule_reserved(when, seq, [this, id] { on_fire(id); });
    m.live_pos[static_cast<std::size_t>(id)] = static_cast<int>(m.live.size());
    m.live.push_back(id);
  }

  void forget(int id) {
    const auto [when, seq] = m.key[static_cast<std::size_t>(id)];
    m.pending.erase({when, seq, id});
    const int pos = m.live_pos[static_cast<std::size_t>(id)];
    const int moved = m.live.back();
    m.live[static_cast<std::size_t>(pos)] = moved;
    m.live_pos[static_cast<std::size_t>(moved)] = pos;
    m.live.pop_back();
    m.live_pos[static_cast<std::size_t>(id)] = -1;
  }

  int random_live() {
    return m.live[static_cast<std::size_t>(
        m.rng.below(static_cast<std::int64_t>(m.live.size())))];
  }

  void on_fire(int id) {
    const SimTime now = sim.now();
    m.log.emplace_back(id, now);
    if (error.empty()) {
      if (m.pending.empty()) {
        error = "fired id " + std::to_string(id) + " with the reference empty";
      } else if (const auto& head = *m.pending.begin();
                 std::get<2>(head) != id || std::get<0>(head) != now) {
        error = "fired id " + std::to_string(id) + " at " + std::to_string(now) +
                ", reference expected id " + std::to_string(std::get<2>(head)) +
                " at " + std::to_string(std::get<0>(head));
      }
    }
    if (m.live_pos[static_cast<std::size_t>(id)] < 0) {
      if (error.empty()) error = "fired id " + std::to_string(id) + " twice or after cancel";
      return;
    }
    forget(id);
    ++m.fired;
    if (m.fired >= kFireBudget) m.spawning = false;
    act(/*firing=*/true);
    run_due_now();
    if (m.rng.one_in(4)) probe_first_at_now();
  }

  /// Random follow-up work, from inside a callback (`firing`) or between
  /// runs.
  void act(bool firing = false) {
    if (m.spawning) {
      const int children = static_cast<int>(
          m.rng.below(m.live.size() < kTargetPending ? 4 : 2));
      for (int i = 0; i < children; ++i) schedule(draw_delay());
      if (m.rng.one_in(4)) reserve(draw_delay());
      if (firing && m.rng.one_in(4)) reserve_now();
      // A burst of short timers outgrows the heap's flush threshold, so the
      // sorted run is live when the next wheel bucket is released into it.
      if (m.rng.one_in(48)) {
        const std::int64_t n = 70 + m.rng.below(130);
        for (std::int64_t i = 0; i < n; ++i) schedule(m.rng.below(kWheelMinDelay));
      }
    }
    // Schedule a reserved event late, with other events scheduled since its
    // reservation (some at its instant) already queued.
    if (!m.deferred.empty() && m.rng.one_in(3)) {
      schedule_deferred(static_cast<std::size_t>(
          m.rng.below(static_cast<std::int64_t>(m.deferred.size()))));
    }
    if (!m.live.empty() && m.rng.one_in(6)) {
      const int id = random_live();
      m.handle[static_cast<std::size_t>(id)].cancel();
      forget(id);
    }
    if (m.live.size() > 8 && m.rng.one_in(40)) cancel_many();
    if (!m.handle.empty() && m.rng.one_in(12)) {
      // Cancelling a fired or cancelled handle is a no-op.
      const int id = static_cast<int>(
          m.rng.below(static_cast<std::int64_t>(m.handle.size())));
      if (m.live_pos[static_cast<std::size_t>(id)] < 0) {
        m.handle[static_cast<std::size_t>(id)].cancel();
      }
    }
  }

  /// Bulk-cancels half to nine tenths of the pending events (enough to
  /// outnumber the live entries and trigger compaction), with dead and
  /// inert handles mixed in.
  void cancel_many() {
    const std::size_t n = m.live.size() * static_cast<std::size_t>(5 + m.rng.below(5)) / 10;
    std::vector<EventHandle> batch;
    std::vector<int> ids;
    for (std::size_t i = 0; i < n; ++i) {
      const int id = random_live();
      if (std::find(ids.begin(), ids.end(), id) != ids.end()) continue;
      ids.push_back(id);
      batch.push_back(m.handle[static_cast<std::size_t>(id)]);
    }
    batch.push_back(EventHandle{});
    const int other = static_cast<int>(
        m.rng.below(static_cast<std::int64_t>(m.handle.size())));
    if (m.live_pos[static_cast<std::size_t>(other)] < 0) {
      batch.push_back(m.handle[static_cast<std::size_t>(other)]);
    }
    for (int id : ids) batch.push_back(m.handle[static_cast<std::size_t>(id)]);
    sim.cancel_bulk(batch.data(), batch.size());
    for (int id : ids) forget(id);
  }

  SimTime draw_delay() {
    Rng& r = m.rng;
    const SimTime now = sim.now();
    switch (r.below(12)) {
      case 0:
        return 0;
      case 1:
      case 2:
      case 3:
        return r.below(kWheelMinDelay);  // heap range
      case 4:
        return r.one_in(2) ? kWheelMinDelay - 1 : kWheelMinDelay;
      case 5:  // level 0
        return kWheelMinDelay + r.below(kLevelWindow[0] - kWheelMinDelay);
      case 6:  // level 1
        return kLevelWindow[0] + r.below(kLevelWindow[1] - kLevelWindow[0]);
      case 7:  // level 2
        return kLevelWindow[1] + r.below(kLevelWindow[2] - kLevelWindow[1]);
      case 8:  // a level-window edge, as a delay
        return kLevelWindow[r.below(3)] - 1 + r.below(3);
      case 9: {  // an absolute bucket boundary of some level, one off or exact
        const int shift = kTickShift + static_cast<int>(r.below(3)) * kLevelBits;
        const SimTime edge = ((now >> shift) + 1 + r.below(64)) << shift;
        return std::max<SimTime>(0, edge - now - 1 + r.below(3));
      }
      case 10:  // past the horizon: the heap fallback
        return kLevelWindow[2] + r.below(kLevelWindow[2]);
      default:  // the same instant as a pending event: a (time, seq) tie
        if (m.live.empty()) return 0;
        return std::max<SimTime>(0, m.key[static_cast<std::size_t>(random_live())].first - now);
    }
  }

  SimTime pick_limit() {
    Rng& r = m.rng;
    const SimTime now = sim.now();
    if (m.pending.empty()) return now + r.below(4 * kTick);
    const SimTime head = std::get<0>(*m.pending.begin());
    const SimTime any =
        m.live.empty() ? head : m.key[static_cast<std::size_t>(random_live())].first;
    switch (r.below(8)) {
      case 0:
        return now;  // an empty run
      case 1:
        return now + r.below(2 * kTick);
      case 2:
        return head;  // exactly onto the next event
      case 3:
        return std::max(now, head - 1);  // just short of it
      case 4:  // just inside the bucket the next event sits in
        return std::max(now, ((head >> kTickShift) << kTickShift) + r.below(4));
      case 5:  // somewhere inside a random pending event's bucket
        return std::max(now, ((any >> kTickShift) << kTickShift) + r.below(kTick));
      case 6:
        return std::max(now, any);  // possibly hours ahead
      default:
        return head + r.below(kTick);
    }
  }

  void check_counters(const std::string& where) {
    if (!error.empty()) return;
    if (sim.events_executed() != m.fired) {
      error = where + ": events_executed " + std::to_string(sim.events_executed()) +
              " != reference " + std::to_string(m.fired);
    } else if (sim.pending_events() != m.live.size() ||
               m.pending.size() != m.live.size() + m.deferred.size()) {
      error = where + ": pending_events " + std::to_string(sim.pending_events()) +
              " != reference " + std::to_string(m.pending.size()) + " less " +
              std::to_string(m.deferred.size()) + " reserved";
    }
  }
};

TEST(TimingWheelOracle, MatchesReferenceOrderAcrossSeedsAndRollback) {
  std::uint64_t ran_inline = 0;
  std::uint64_t scheduled_at_now = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Oracle o(seed);
    o.seed_events(120);
    const int capture_step = static_cast<int>(o.m.rng.below(Oracle::kSteps));
    for (int step = 0; step < capture_step && o.error.empty(); ++step) o.step();
    ASSERT_EQ(o.error, "");
    Simulator::Snapshot snap;
    o.sim.capture(snap);
    const Model at_capture = o.m;
    o.run_from(capture_step);
    ASSERT_EQ(o.error, "");
    const Model first_pass = o.m;
    ran_inline += first_pass.ran_inline;
    scheduled_at_now += first_pass.scheduled_at_now;
    const std::uint64_t executed = o.sim.events_executed();

    for (int replay = 1; replay <= 2; ++replay) {
      SCOPED_TRACE("replay " + std::to_string(replay));
      {
        tests::ScopedAllocationCounter counter;
        o.sim.restore(snap);
        EXPECT_EQ(counter.count(), 0) << "restore allocated";
      }
      o.m = at_capture;
      o.run_from(capture_step);
      ASSERT_EQ(o.error, "");
      EXPECT_EQ(o.m.log, first_pass.log);
      EXPECT_EQ(o.sim.events_executed(), executed);
      EXPECT_EQ(o.sim.pending_events(), 0u);
    }
  }
  // Both ways of settling an event reserved at the current instant ran.
  EXPECT_GT(ran_inline, 0u);
  EXPECT_GT(scheduled_at_now, 0u);
}

}  // namespace
}  // namespace memca
