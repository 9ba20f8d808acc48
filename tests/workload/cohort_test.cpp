// Cohort-batched client population: unit coverage for the SoA building
// blocks (slot allocator, RTO ledger, multinomial chain advances) and
// behavioural coverage for ClosedLoopClients in kCohort mode — population
// conservation, throughput, retransmission semantics, determinism, and the
// zero-allocation steady state. The statistical agreement with the exact
// per-user model is pinned separately in cohort_equivalence_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/memca.h"
#include "queueing/ntier.h"
#include "queueing/tandem.h"
#include "sim/simulator.h"
#include "support/counting_alloc.h"
#include "support/trace_hash.h"
#include "support/trace_skip.h"
#include "testbed/rubbos_testbed.h"
#include "trace/recorder.h"
#include "workload/clients.h"
#include "workload/cohort.h"
#include "workload/markov.h"
#include "workload/profile.h"
#include "workload/router.h"

namespace memca::workload {
namespace {

TEST(CohortParts, SlotAllocatorHandsOutCompactIdsAndRecycles) {
  UserSlotAllocator slots;
  EXPECT_EQ(slots.alloc(), 0u);
  EXPECT_EQ(slots.alloc(), 1u);
  EXPECT_EQ(slots.alloc(), 2u);
  EXPECT_EQ(slots.live(), 3);
  slots.release(1);
  EXPECT_EQ(slots.live(), 2);
  // LIFO reuse: the released id comes back before a fresh one.
  EXPECT_EQ(slots.alloc(), 1u);
  EXPECT_EQ(slots.high_water(), 3u);
}

TEST(CohortParts, SlotAllocatorSnapshotRoundTrip) {
  UserSlotAllocator slots;
  for (int i = 0; i < 8; ++i) slots.alloc();
  slots.release(2);
  slots.release(5);
  UserSlotAllocator::Snapshot snap;
  slots.capture(snap);
  // Diverge, then restore: the alloc sequence must replay identically.
  slots.release(0);
  (void)slots.alloc();
  slots.restore(snap);
  EXPECT_EQ(slots.live(), 6);
  EXPECT_EQ(slots.alloc(), 5u);
  EXPECT_EQ(slots.alloc(), 2u);
  EXPECT_EQ(slots.alloc(), 8u);
}

/// The allocator's whole state: free list (bottom to top), high water and
/// live count.
std::tuple<std::vector<std::uint32_t>, std::uint32_t, std::int64_t> slot_state(
    const UserSlotAllocator& slots) {
  UserSlotAllocator::Snapshot snap;
  slots.capture(snap);
  return {snap.free, snap.high_water, snap.live};
}

TEST(CohortParts, SlotAllocatorBulkCallsMatchSingleCalls) {
  // Two allocators walk the same script, one id per call and in bulk.
  UserSlotAllocator single;
  UserSlotAllocator bulk;
  for (UserSlotAllocator* slots : {&single, &bulk}) {
    for (int i = 0; i < 12; ++i) (void)slots->alloc();
    for (const std::uint32_t id : {3u, 9u, 0u, 7u, 4u}) slots->release(id);
  }
  const auto take = [&](std::size_t n) {
    std::vector<std::uint32_t> want;
    std::vector<std::uint32_t> got;
    for (std::size_t i = 0; i < n; ++i) want.push_back(single.alloc());
    bulk.alloc_n(n, [&](std::size_t i, std::uint32_t id) {
      EXPECT_EQ(i, got.size());
      got.push_back(id);
    });
    EXPECT_EQ(got, want);
    EXPECT_EQ(slot_state(bulk), slot_state(single));
    return got;
  };
  const auto give_back = [&](const std::vector<std::uint32_t>& ids) {
    for (const std::uint32_t id : ids) single.release(id);
    bulk.release_n(ids.size(), [&](std::size_t i) { return ids[i]; });
    EXPECT_EQ(slot_state(bulk), slot_state(single));
  };

  // Eight ids: the five free ones (top first), then the free list runs out
  // and three fresh ids follow.
  EXPECT_EQ(take(8), (std::vector<std::uint32_t>{4, 7, 0, 9, 3, 12, 13, 14}));
  EXPECT_EQ(bulk.high_water(), 15u);
  EXPECT_EQ(bulk.live(), 15);
  give_back({13, 0, 14, 9, 3, 12});
  EXPECT_EQ(take(4), (std::vector<std::uint32_t>{12, 3, 9, 14}));
  EXPECT_EQ(take(0), std::vector<std::uint32_t>{});
  give_back({});
  EXPECT_EQ(take(3), (std::vector<std::uint32_t>{0, 13, 15}));
  EXPECT_EQ(bulk.live(), 16);
}

/// Page classes of the ledgers below: pages are user % 7, three page bits.
constexpr std::size_t kPages = 7;

TEST(CohortParts, RtoLedgerGroupsSameDeadlineDrops) {
  RtoLedger ledger(kPages);
  // Three same-instant drops at attempt 0, first sent at one instant: one
  // group, one timer to arm.
  const auto a = ledger.park(0, sec(std::int64_t{5}), 1, 100, 10);
  const auto b = ledger.park(0, sec(std::int64_t{5}), 2, 100, 11);
  const auto c = ledger.park(0, sec(std::int64_t{5}), 3, 100, 12);
  EXPECT_TRUE(a.opened);
  EXPECT_FALSE(b.opened);
  EXPECT_FALSE(c.opened);
  EXPECT_EQ(a.group, b.group);
  EXPECT_EQ(b.group, c.group);
  EXPECT_EQ(ledger.backlog(), 3);
  // A later drop (different deadline) opens a fresh group even at the same
  // attempt; a different attempt always does.
  const auto d = ledger.park(0, sec(std::int64_t{6}), 4, 400, 13);
  const auto e = ledger.park(1, sec(std::int64_t{7}), 5, 500, 14);
  EXPECT_TRUE(d.opened);
  EXPECT_TRUE(e.opened);
  EXPECT_EQ(ledger.backlog(), 5);

  EXPECT_EQ(ledger.deadline(a.group), sec(std::int64_t{5}));
  EXPECT_EQ(ledger.first_sent(a.group), 100);
  EXPECT_EQ(ledger.first_sent(d.group), 400);
  EXPECT_EQ(ledger.attempt(e.group), 1);
  // Each attempt queues its groups in deadline order.
  EXPECT_EQ(ledger.due(0), a.group);
  EXPECT_EQ(ledger.next_due(a.group), d.group);
  EXPECT_EQ(ledger.next_due(d.group), RtoLedger::kNone);
  EXPECT_EQ(ledger.due(1), e.group);
  EXPECT_EQ(ledger.due(2), RtoLedger::kNone);

  // The earliest group falls due first; drain reads it LIFO (deterministic)
  // and frees it.
  ASSERT_EQ(ledger.pop_due(0), a.group);
  EXPECT_EQ(ledger.due(0), d.group);
  std::vector<std::uint32_t> users;
  ledger.drain(a.group, [&](std::int32_t page, SimTime first_sent, std::uint32_t user) {
    users.push_back(user);
    EXPECT_EQ(page, static_cast<std::int32_t>(user) - 9);
    EXPECT_EQ(first_sent, 100);
  });
  EXPECT_EQ(users, (std::vector<std::uint32_t>{12, 11, 10}));
  EXPECT_EQ(ledger.backlog(), 2);
}

TEST(CohortParts, RtoLedgerSplitsADeadlineByFirstSend) {
  // Drops a system reports itself can share a (deadline, attempt) but not a
  // first send. A park joins the FIFO's tail only when both match, else it
  // opens a group behind it: groups of one deadline queue in park order.
  RtoLedger ledger(kPages);
  const auto a = ledger.park(0, 1000, 1, 100, 10);
  const auto b = ledger.park(0, 1000, 2, 200, 11);
  const auto c = ledger.park(0, 1000, 3, 200, 12);
  const auto d = ledger.park(0, 1000, 4, 100, 13);  // a's first send, but a is not the tail
  EXPECT_TRUE(a.opened);
  EXPECT_TRUE(b.opened);
  EXPECT_FALSE(c.opened);
  EXPECT_EQ(c.group, b.group);
  EXPECT_TRUE(d.opened);
  EXPECT_NE(d.group, a.group);
  EXPECT_EQ(ledger.backlog(), 4);

  const std::vector<std::tuple<SimTime, std::vector<std::uint32_t>>> want = {
      {100, {10}}, {200, {12, 11}}, {100, {13}}};
  for (const auto& [first, users] : want) {
    const std::uint32_t g = ledger.pop_due(0);
    EXPECT_EQ(ledger.deadline(g), 1000);
    EXPECT_EQ(ledger.first_sent(g), first);
    std::vector<std::uint32_t> got;
    ledger.drain(g, [&](std::int32_t page, SimTime first_sent, std::uint32_t user) {
      got.push_back(user);
      EXPECT_EQ(page, static_cast<std::int32_t>(user) - 9);
      EXPECT_EQ(first_sent, first);
    });
    EXPECT_EQ(got, users);
  }
  EXPECT_EQ(ledger.due(0), RtoLedger::kNone);
  EXPECT_EQ(ledger.backlog(), 0);
}

TEST(CohortParts, RtoLedgerSnapshotRoundTrip) {
  RtoLedger ledger(kPages);
  const auto g0 = ledger.park(0, 1000, 1, 10, 100);
  ledger.park(0, 1000, 2, 10, 101);
  const auto g1 = ledger.park(2, 4000, 3, 30, 102);
  RtoLedger::Snapshot snap;
  ledger.capture(snap);

  // Diverge: drain both groups, park new entries.
  ledger.drain(ledger.pop_due(0), [](std::int32_t, SimTime, std::uint32_t) {});
  ledger.drain(ledger.pop_due(2), [](std::int32_t, SimTime, std::uint32_t) {});
  ledger.park(1, 2000, 6, 90, 900);

  ledger.restore(snap);
  EXPECT_EQ(ledger.backlog(), 3);
  EXPECT_EQ(ledger.due(1), RtoLedger::kNone);
  ASSERT_EQ(ledger.pop_due(0), g0.group);
  std::vector<std::uint32_t> users;
  ledger.drain(g0.group, [&](std::int32_t page, SimTime first_sent, std::uint32_t user) {
    users.push_back(user);
    EXPECT_EQ(page, static_cast<std::int32_t>(user) - 99);
    EXPECT_EQ(first_sent, 10);
  });
  EXPECT_EQ(users, (std::vector<std::uint32_t>{101, 100}));
  users.clear();
  ASSERT_EQ(ledger.pop_due(2), g1.group);
  ledger.drain(g1.group, [&](std::int32_t page, SimTime first_sent, std::uint32_t user) {
    users.push_back(user);
    EXPECT_EQ(page, 3);
    EXPECT_EQ(first_sent, 30);
  });
  EXPECT_EQ(users, (std::vector<std::uint32_t>{102}));
  EXPECT_EQ(ledger.backlog(), 0);
}

// -- RTO ledger: per-attempt FIFOs over the shared block pool ---------------

constexpr std::uint32_t kBlock = static_cast<std::uint32_t>(RtoLedger::kBlockEntries);

/// Parks users [first, first + n) at (attempt, deadline), all first sent at
/// first * 3; page = user % 7.
RtoLedger::Parked park_run(RtoLedger& ledger, int attempt, SimTime deadline,
                           std::uint32_t first, std::uint32_t n) {
  RtoLedger::Parked parked;
  for (std::uint32_t u = first; u < first + n; ++u) {
    const RtoLedger::Parked p = ledger.park(attempt, deadline, static_cast<std::int32_t>(u % 7),
                                            static_cast<SimTime>(first) * 3, u);
    if (u == first) parked = p;
  }
  return parked;
}

/// Takes `group` off the head of its attempt's due FIFO, as the clients'
/// agenda does when the group falls due.
void pop(RtoLedger& ledger, std::uint32_t group) {
  ASSERT_EQ(ledger.pop_due(ledger.attempt(group)), group)
      << "the group is not its attempt's earliest due";
}

/// Pops `group` and drains it, discarding its entries.
void fire_all(RtoLedger& ledger, std::uint32_t group) {
  pop(ledger, group);
  ledger.drain(group, [](std::int32_t, SimTime, std::uint32_t) {});
}

/// Pops and drains `group` and checks it held exactly users
/// [first, first + n), delivered newest first with their pages and the
/// group's first send intact.
void expect_drains(RtoLedger& ledger, std::uint32_t group, std::uint32_t first,
                   std::uint32_t n) {
  pop(ledger, group);
  std::uint32_t want = first + n;
  ledger.drain(group, [&](std::int32_t page, SimTime first_sent, std::uint32_t user) {
    --want;
    EXPECT_EQ(user, want);
    EXPECT_EQ(page, static_cast<std::int32_t>(user % 7));
    EXPECT_EQ(first_sent, static_cast<SimTime>(first) * 3);
  });
  EXPECT_EQ(want, first) << "group held " << first + n - want << " of " << n << " entries";
}

TEST(CohortParts, RtoLedgerInterleavedLevelsSpanBlocks) {
  RtoLedger ledger(kPages);
  // Two levels filled in alternation, three groups each, every level holding
  // well over three blocks of entries at once.
  const std::uint32_t n = kBlock + kBlock / 3;
  std::vector<RtoLedger::Parked> level0;
  std::vector<RtoLedger::Parked> level1;
  for (std::uint32_t g = 0; g < 3; ++g) {
    level0.push_back(park_run(ledger, 0, 1000 + g, 2 * g * n, n));
    level1.push_back(park_run(ledger, 1, 2000 + g, (2 * g + 1) * n, n));
  }
  EXPECT_EQ(ledger.backlog(), static_cast<int>(6 * n));
  for (std::uint32_t g = 0; g < 3; ++g) {
    EXPECT_TRUE(level0[g].opened);
    EXPECT_EQ(ledger.size(level0[g].group), n);
    EXPECT_EQ(ledger.attempt(level1[g].group), 1);
  }
  // Each level fires in deadline order, but the two levels interleave.
  for (std::uint32_t g = 0; g < 3; ++g) {
    expect_drains(ledger, level1[g].group, (2 * g + 1) * n, n);
    expect_drains(ledger, level0[g].group, 2 * g * n, n);
  }
  EXPECT_EQ(ledger.backlog(), 0);
}

TEST(CohortParts, RtoLedgerGroupStraddlesBlockBoundary) {
  RtoLedger ledger(kPages);
  const auto head = park_run(ledger, 0, 1000, 0, kBlock - 100);
  const auto straddler = park_run(ledger, 0, 2000, kBlock - 100, 300);
  const auto tail = park_run(ledger, 0, 3000, kBlock + 200, 5);
  expect_drains(ledger, head.group, 0, kBlock - 100);
  expect_drains(ledger, straddler.group, kBlock - 100, 300);
  // The emptied first block went back to the pool; a new level reuses it.
  const auto other = park_run(ledger, 3, 9000, 50000, 10);
  expect_drains(ledger, tail.group, kBlock + 200, 5);
  expect_drains(ledger, other.group, 50000, 10);
  EXPECT_EQ(ledger.backlog(), 0);
}

/// Reads `group` in drain order without consuming it.
std::vector<std::uint32_t> drain_order(const RtoLedger& ledger, std::uint32_t group) {
  std::vector<std::uint32_t> users;
  RtoLedger::Cursor it = ledger.cursor(group);
  for (std::size_t n = ledger.size(group); n > 0; --n) users.push_back(it.next().user);
  return users;
}

/// Reads the next `n` entries of `it` a block span at a time, at most `max`
/// per span, in drain order.
std::vector<std::uint32_t> read_runs(RtoLedger::Cursor& it, std::size_t n, std::size_t max) {
  std::vector<std::uint32_t> users;
  while (users.size() < n) {
    const RtoLedger::Run run = it.next_run(std::min(max, n - users.size()));
    EXPECT_GT(run.size, 0u);
    for (std::size_t i = 0; i < run.size; ++i) users.push_back(run[i].user);
  }
  return users;
}

/// Users [first, last] ascending, or descending when first > last.
std::vector<std::uint32_t> run_of(std::uint32_t first, std::uint32_t last) {
  std::vector<std::uint32_t> users;
  for (std::uint32_t u = first;; u = first < last ? u + 1 : u - 1) {
    users.push_back(u);
    if (u == last) break;
  }
  return users;
}

TEST(CohortParts, RtoLedgerPartialAdmissionReparksInDrainOrder) {
  RtoLedger ledger(kPages);
  // An older group leaves the next one starting 10 entries before a block
  // boundary; that group (users 10 .. kBlock + 29) spans three blocks.
  fire_all(ledger, park_run(ledger, 0, 500, 900000, kBlock - 10).group);
  const std::uint32_t n = kBlock + 20;
  const auto g = park_run(ledger, 0, 1000, 10, n);
  const std::uint32_t last = 10 + n - 1;

  // First fire: the three newest are admitted; the rest bounce and move to
  // attempt 1 in place, to drain in the order a copy in fire order would.
  pop(ledger, g.group);
  RtoLedger::Cursor it = ledger.cursor(g.group);
  std::vector<std::uint32_t> admitted;
  for (int i = 0; i < 3; ++i) admitted.push_back(it.next().user);
  EXPECT_EQ(admitted, run_of(last, last - 2));
  ledger.relabel(g.group, n - 3, 3000);
  EXPECT_EQ(ledger.attempt(g.group), 1);
  EXPECT_EQ(ledger.deadline(g.group), 3000);
  EXPECT_EQ(ledger.backlog(), static_cast<int>(n - 3));
  EXPECT_EQ(ledger.due(1), g.group);
  EXPECT_EQ(drain_order(ledger, g.group), run_of(10, last - 3));

  // Second fire, oldest first now: five admitted, the rest relabelled
  // again and back to newest first.
  pop(ledger, g.group);
  it = ledger.cursor(g.group);
  admitted.clear();
  for (int i = 0; i < 5; ++i) admitted.push_back(it.next().user);
  EXPECT_EQ(admitted, run_of(10, 14));
  ledger.relabel(g.group, n - 8, 7000);
  EXPECT_EQ(ledger.attempt(g.group), 2);
  EXPECT_EQ(ledger.backlog(), static_cast<int>(n - 8));
  EXPECT_EQ(drain_order(ledger, g.group), run_of(last - 3, 15));

  // Third fire: nothing admitted; a pure relabel keeps every entry and
  // flips the order once more.
  pop(ledger, g.group);
  ledger.relabel(g.group, n - 8, 15000);
  EXPECT_EQ(ledger.attempt(g.group), 3);
  EXPECT_EQ(drain_order(ledger, g.group), run_of(15, last - 3));
  pop(ledger, g.group);
  ledger.free(g.group);
  EXPECT_EQ(ledger.backlog(), 0);
}

TEST(CohortParts, RtoLedgerBlockLivesUntilItsLastEntryDies) {
  RtoLedger ledger(kPages);
  // Warm level 3 and a one-block pool, so the parks below allocate only
  // when they need a block the pool cannot give.
  fire_all(ledger, park_run(ledger, 3, 100, 900000, 1).group);

  // Two level-0 groups share one block. The older one bounces to attempt 1
  // and outlives the younger one, which fires in full.
  const auto older = park_run(ledger, 0, 1000, 0, 100);
  const auto younger = park_run(ledger, 0, 1001, 100, 100);
  pop(ledger, older.group);
  ledger.relabel(older.group, 90, 3000);
  fire_all(ledger, younger.group);
  EXPECT_EQ(ledger.backlog(), 90);

  // The shared block still holds 90 live entries, so a park elsewhere must
  // take a new block rather than reuse it.
  RtoLedger::Parked other;
  {
    tests::ScopedAllocationCounter counter;
    other = park_run(ledger, 3, 5000, 500, 10);
    EXPECT_GT(counter.count(), 0) << "a block with live entries went back to the pool";
  }
  EXPECT_EQ(drain_order(ledger, older.group), run_of(0, 89));  // intact, oldest first
  pop(ledger, older.group);
  ledger.free(older.group);
  fire_all(ledger, other.group);

  // Both blocks are dead now and the pool hands them out again.
  {
    tests::ScopedAllocationCounter counter;
    const auto reused = park_run(ledger, 3, 6000, 600, 10);
    EXPECT_EQ(counter.count(), 0);
    expect_drains(ledger, reused.group, 600, 10);
  }
  EXPECT_EQ(ledger.backlog(), 0);
}

// -- RTO ledger vs a copying reference --------------------------------------

/// One entry as drained: (page, user, first send).
using Drained = std::tuple<std::int32_t, std::uint32_t, SimTime>;

/// The ledger's contract written the naive way: one vector per group, a
/// re-park copies the bounced entries into a new vector in fire order, and
/// each attempt's due groups sit in a deque, earliest first. Vectors drain
/// from the back (newest first); every entry of a group drains with the
/// group's first send.
struct ReferenceLedger {
  struct Group {
    SimTime deadline = 0;
    SimTime first_sent = 0;
    int attempt = 0;
    bool relabelled = false;
    std::vector<RtoLedger::Entry> entries;
  };
  std::map<std::uint32_t, Group> groups;
  std::vector<std::deque<std::uint32_t>> due;  // per attempt

  std::deque<std::uint32_t>& due_at(int attempt) {
    if (static_cast<std::size_t>(attempt) >= due.size()) {
      due.resize(static_cast<std::size_t>(attempt) + 1);
    }
    return due[static_cast<std::size_t>(attempt)];
  }
  std::vector<Drained> drained(std::uint32_t id) const {
    std::vector<Drained> out;
    const Group& g = groups.at(id);
    for (auto it = g.entries.rbegin(); it != g.entries.rend(); ++it) {
      out.emplace_back(it->page, it->user, g.first_sent);
    }
    return out;
  }
  int backlog() const {
    std::size_t n = 0;
    for (const auto& [id, g] : groups) n += g.entries.size();
    return static_cast<int>(n);
  }
};

/// The due FIFO of `attempt`, earliest first, walked through the ledger.
std::vector<std::uint32_t> due_order(const RtoLedger& ledger, int attempt) {
  std::vector<std::uint32_t> order;
  for (std::uint32_t g = ledger.due(attempt); g != RtoLedger::kNone; g = ledger.next_due(g)) {
    order.push_back(g);
  }
  return order;
}

/// The next `n` entries of `it` in drain order: the first `one_by_one` read
/// one at a time, the rest a block span at a time, at most `max` per span.
std::vector<Drained> read_drained(RtoLedger::Cursor& it, std::size_t n, std::size_t one_by_one,
                                  std::size_t max) {
  std::vector<Drained> out;
  while (out.size() < std::min(n, one_by_one)) {
    const RtoLedger::Entry e = it.next();
    out.emplace_back(e.page, e.user, it.first_sent());
  }
  while (out.size() < n) {
    const RtoLedger::Run run = it.next_run(std::min(max, n - out.size()));
    EXPECT_GT(run.size, 0u);
    for (std::size_t i = 0; i < run.size; ++i) {
      out.emplace_back(run[i].page, run[i].user, run.first_sent);
    }
  }
  return out;
}

void expect_same(const RtoLedger& ledger, const ReferenceLedger& ref, int step) {
  ASSERT_EQ(ledger.backlog(), ref.backlog()) << "step " << step;
  for (const auto& [id, g] : ref.groups) {
    ASSERT_EQ(ledger.size(id), g.entries.size()) << "step " << step << " group " << id;
    ASSERT_EQ(ledger.attempt(id), g.attempt) << "step " << step << " group " << id;
    ASSERT_EQ(ledger.deadline(id), g.deadline) << "step " << step << " group " << id;
    ASSERT_EQ(ledger.first_sent(id), g.first_sent) << "step " << step << " group " << id;
    RtoLedger::Cursor it = ledger.cursor(id);
    ASSERT_EQ(read_drained(it, g.entries.size(), g.entries.size(), 1), ref.drained(id))
        << "step " << step << " group " << id;
  }
  const std::size_t levels = std::max(ledger.levels(), ref.due.size());
  for (std::size_t a = 0; a < levels; ++a) {
    const std::vector<std::uint32_t> order = due_order(ledger, static_cast<int>(a));
    const std::vector<std::uint32_t> want =
        a < ref.due.size() ? std::vector<std::uint32_t>(ref.due[a].begin(), ref.due[a].end())
                           : std::vector<std::uint32_t>{};
    ASSERT_EQ(order, want) << "step " << step << " attempt " << a;
    for (std::size_t i = 1; i < order.size(); ++i) {
      ASSERT_LE(ledger.deadline(order[i - 1]), ledger.deadline(order[i]))
          << "step " << step << " attempt " << a << ": due FIFO out of deadline order";
    }
  }
}

void run_reference_differential(std::uint64_t seed) {
  Rng rng(seed);
  RtoLedger ledger(kPages);
  ReferenceLedger ref;
  RtoLedger::Snapshot snap;
  ReferenceLedger ref_snap;
  bool captured = false;
  SimTime next_deadline = 1;
  std::uint32_t next_user = 0;
  constexpr int kLevels = 4;
  constexpr int kMaxAttempt = 6;

  // A random attempt whose FIFO holds a group.
  const auto pick_level = [&]() -> int {
    std::vector<int> busy;
    for (std::size_t a = 0; a < ref.due.size(); ++a) {
      if (!ref.due[a].empty()) busy.push_back(static_cast<int>(a));
    }
    return busy[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(busy.size()) - 1))];
  };

  for (int step = 0; step < 400; ++step) {
    const std::int64_t op = ref.groups.empty() ? 0 : rng.uniform_int(0, 9);
    if (op <= 2) {
      // Park a run of entries, half the time at the FIFO tail's deadline.
      // The first send is the tail's half the time, else one of five, so
      // same-deadline parks both join and split, and a split can repeat a
      // first send further up the FIFO. A park joins only a tail that
      // matches both and that a park opened; a relabelled tail is never
      // joined (see the death test), so a park beside it at its deadline
      // carries another first send.
      const int attempt = static_cast<int>(rng.uniform_int(0, kLevels - 1));
      const std::deque<std::uint32_t>& due = ref.due_at(attempt);
      const ReferenceLedger::Group* tail = due.empty() ? nullptr : &ref.groups.at(due.back());
      const bool same_deadline = tail != nullptr && rng.chance(0.5);
      SimTime first_sent = tail != nullptr && rng.chance(0.5) ? tail->first_sent
                                                              : rng.uniform_int(0, 4) * 10;
      if (same_deadline && tail->relabelled && first_sent == tail->first_sent) ++first_sent;
      const bool join = same_deadline && first_sent == tail->first_sent;
      const SimTime deadline = same_deadline ? tail->deadline : next_deadline++;
      const auto n = static_cast<std::uint32_t>(rng.uniform_int(1, 1200));
      const auto first_park = [&](const RtoLedger::Parked& p) {
        ASSERT_EQ(p.opened, !join) << "step " << step;
        if (!join) {
          ASSERT_EQ(ref.groups.count(p.group), 0u) << "step " << step;
          ref.groups[p.group] = ReferenceLedger::Group{deadline, first_sent, attempt, false, {}};
          ref.due_at(attempt).push_back(p.group);
        }
        // The group a park joins or opens is the FIFO's tail.
        ASSERT_EQ(due_order(ledger, attempt).back(), p.group) << "step " << step;
      };
      const auto entry = [](std::uint32_t user) {
        return RtoLedger::Entry{static_cast<std::int32_t>(user % 7), user};
      };
      if (rng.chance(0.5)) {
        // One entry per park().
        for (std::uint32_t i = 0; i < n; ++i, ++next_user) {
          const RtoLedger::Entry e = entry(next_user);
          const RtoLedger::Parked p = ledger.park(attempt, deadline, e.page, first_sent, e.user);
          if (i == 0) first_park(p);
          if (::testing::Test::HasFatalFailure()) return;
          ASSERT_EQ(p.group, ref.due_at(attempt).back()) << "step " << step;
          ref.groups.at(p.group).entries.push_back(e);
        }
      } else {
        // One open(), then one append() per block span.
        const RtoLedger::Parked p = ledger.open(attempt, deadline, first_sent);
        first_park(p);
        if (::testing::Test::HasFatalFailure()) return;
        for (std::uint32_t i = 0; i < n;) {
          const std::span<RtoLedger::Word> span = ledger.append(attempt, n - i);
          ASSERT_GT(span.size(), 0u) << "step " << step;
          for (RtoLedger::Word& word : span) {
            const RtoLedger::Entry e = entry(next_user++);
            word = ledger.pack(e.page, e.user);
            ref.groups.at(p.group).entries.push_back(e);
          }
          i += static_cast<std::uint32_t>(span.size());
        }
      }
    } else if (op <= 7) {
      // The earliest group of some attempt falls due and leaves its FIFO.
      const int attempt = pick_level();
      const std::uint32_t id = ref.due_at(attempt).front();
      ref.due_at(attempt).pop_front();
      ASSERT_EQ(ledger.pop_due(attempt), id) << "step " << step;
      ReferenceLedger::Group& g = ref.groups.at(id);
      if (op <= 5 && g.attempt < kMaxAttempt) {
        // Partial admission: a prefix in drain order is admitted, the rest
        // moves on to the next attempt (the reference copies it). Read as a
        // fire does: the admitted prefix one entry at a time, the rest a
        // block span at a time.
        const auto size = static_cast<std::int64_t>(g.entries.size());
        const auto admitted = static_cast<std::size_t>(rng.uniform_int(0, size - 1));
        RtoLedger::Cursor it = ledger.cursor(id);
        ASSERT_EQ(read_drained(it, g.entries.size(), admitted,
                               static_cast<std::size_t>(rng.uniform_int(1, 5000))),
                  ref.drained(id))
            << "step " << step;
        // Half the time the group lands at the deadline of the next
        // attempt's tail when their first sends differ: a copy would open a
        // group behind that tail too.
        const std::deque<std::uint32_t>& to = ref.due_at(g.attempt + 1);
        const ReferenceLedger::Group* to_tail = to.empty() ? nullptr : &ref.groups.at(to.back());
        const bool beside =
            to_tail != nullptr && to_tail->first_sent != g.first_sent && rng.chance(0.5);
        const SimTime deadline = beside ? to_tail->deadline : next_deadline++;
        ledger.relabel(id, g.entries.size() - admitted, deadline);
        std::vector<RtoLedger::Entry> moved(
            g.entries.rbegin() + static_cast<std::ptrdiff_t>(admitted), g.entries.rend());
        g = ReferenceLedger::Group{deadline, g.first_sent, g.attempt + 1, true, std::move(moved)};
        ref.due_at(g.attempt).push_back(id);
      } else {
        // Abandon or admit in full: every entry leaves.
        std::vector<Drained> drained;
        ledger.drain(id, [&](std::int32_t page, SimTime first_sent, std::uint32_t user) {
          drained.emplace_back(page, user, first_sent);
        });
        ASSERT_EQ(drained, ref.drained(id)) << "step " << step;
        ref.groups.erase(id);
      }
    } else if (op == 8) {
      ledger.capture(snap);
      ref_snap = ref;
      captured = true;
    } else if (captured) {
      tests::ScopedAllocationCounter counter;
      ledger.restore(snap);
      ASSERT_EQ(counter.count(), 0) << "step " << step << ": restore allocated";
      ref = ref_snap;
    }
    expect_same(ledger, ref, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CohortParts, RtoLedgerMatchesACopyingReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_reference_differential(seed);
    if (HasFatalFailure()) return;
  }

  // A bulk append that starts mid-block and crosses two block boundaries
  // reads back a block span at a time in both drain directions: newest
  // first as parked, oldest first once relabelled.
  RtoLedger ledger(kPages);
  const auto older = park_run(ledger, 0, 500, 900000, kBlock / 2);
  const RtoLedger::Parked p = ledger.open(0, 1000, 42);
  ASSERT_TRUE(p.opened);
  const std::uint32_t n = 2 * kBlock + 100;
  std::vector<std::size_t> spans;
  for (std::uint32_t u = 0; u < n;) {
    const std::span<RtoLedger::Word> span = ledger.append(0, n - u);
    spans.push_back(span.size());
    for (RtoLedger::Word& word : span) {
      word = ledger.pack(static_cast<std::int32_t>(u % 7), u);
      ++u;
    }
  }
  EXPECT_EQ(spans, (std::vector<std::size_t>{kBlock / 2, kBlock, kBlock / 2 + 100}));
  EXPECT_EQ(ledger.size(p.group), n);
  EXPECT_EQ(ledger.backlog(), static_cast<int>(n + kBlock / 2));
  fire_all(ledger, older.group);
  pop(ledger, p.group);
  RtoLedger::Cursor it = ledger.cursor(p.group);
  EXPECT_EQ(read_runs(it, n, 3000), run_of(n - 1, 0));
  ledger.relabel(p.group, n, 3000);
  pop(ledger, p.group);
  it = ledger.cursor(p.group);
  EXPECT_EQ(it.first_sent(), 42);
  EXPECT_EQ(read_runs(it, n, 3000), run_of(0, n - 1));
  ledger.free(p.group);
  EXPECT_EQ(ledger.backlog(), 0);
}

TEST(CohortParts, RtoLedgerSnapshotAcrossBlocksAllocatesNothing) {
  RtoLedger ledger(kPages);
  // Level 0 starts mid-block (an older group already fired), level 2 spans
  // three blocks, level 1 is empty but has been used.
  const auto fired = park_run(ledger, 0, 500, 0, kBlock / 2);
  const auto l1 = park_run(ledger, 1, 600, 900000, 3);
  const auto a = park_run(ledger, 0, 1000, 100000, kBlock);
  const auto b = park_run(ledger, 2, 4000, 200000, 2 * kBlock + 17);
  fire_all(ledger, fired.group);
  fire_all(ledger, l1.group);
  RtoLedger::Snapshot snap;
  ledger.capture(snap);

  // Diverge: fire both groups, park more than the snapshot held.
  fire_all(ledger, a.group);
  fire_all(ledger, b.group);
  park_run(ledger, 1, 7000, 300000, 4 * kBlock);
  park_run(ledger, 4, 8000, 400000, 10);

  {
    tests::ScopedAllocationCounter counter;
    ledger.restore(snap);
    EXPECT_EQ(counter.count(), 0);
  }
  EXPECT_EQ(ledger.backlog(), static_cast<int>(3 * kBlock + 17));
  expect_drains(ledger, a.group, 100000, kBlock);
  expect_drains(ledger, b.group, 200000, 2 * kBlock + 17);
  EXPECT_EQ(ledger.backlog(), 0);
  // The restored levels keep parking after their captured tails.
  const auto c = park_run(ledger, 1, 9000, 500000, kBlock + 1);
  expect_drains(ledger, c.group, 500000, kBlock + 1);
}

TEST(CohortPartsDeathTest, RtoLedgerRelabelNeverJoinsALabelledDeadline) {
  // A copy into the next attempt's tail could join a group already labelled
  // (attempt, deadline) with the same first send; a relabel cannot, so the
  // ledger refuses both orders. park_run(.., 5, 5) first sends at 15.
  {
    RtoLedger ledger(kPages);
    ledger.park(1, 3000, 0, 15, 0);
    const auto fired = park_run(ledger, 0, 1000, 5, 5);
    pop(ledger, fired.group);
    EXPECT_DEATH(ledger.relabel(fired.group, 5, 3000), "never shares");
  }
  {
    RtoLedger ledger(kPages);
    const auto fired = park_run(ledger, 0, 1000, 5, 5);
    pop(ledger, fired.group);
    ledger.relabel(fired.group, 5, 3000);
    EXPECT_DEATH(ledger.park(1, 3000, 0, 15, 99), "never shares");
  }
}

TEST(CohortParts, RtoLedgerRelabelBesideAnotherFirstSendOpensBehind) {
  // With another first send, a copy would open a group behind the tail, so
  // a relabel may land there, and a park behind a relabelled group too.
  RtoLedger ledger(kPages);
  const auto waiting = park_run(ledger, 1, 3000, 0, 5);  // first sent at 0
  const auto fired = park_run(ledger, 0, 1000, 5, 5);    // first sent at 15
  pop(ledger, fired.group);
  ledger.relabel(fired.group, 5, 3000);
  const auto later = ledger.park(1, 3000, 0, 0, 99);
  EXPECT_TRUE(later.opened);
  EXPECT_EQ(due_order(ledger, 1),
            (std::vector<std::uint32_t>{waiting.group, fired.group, later.group}));
  expect_drains(ledger, waiting.group, 0, 5);
  pop(ledger, fired.group);
  EXPECT_EQ(drain_order(ledger, fired.group), run_of(5, 9));
  ledger.free(fired.group);
  pop(ledger, later.group);
  ledger.drain(later.group, [](std::int32_t, SimTime first_sent, std::uint32_t user) {
    EXPECT_EQ(first_sent, 0);
    EXPECT_EQ(user, 99u);
  });
  EXPECT_EQ(ledger.backlog(), 0);
}

TEST(CohortParts, RtoLedgerHoldsFourBytesPerEntry) {
  // A parked retransmission is one 32-bit word: the block pool grows by
  // 16 KB per 4,096 entries, and a snapshot copies 4 B per entry. The group
  // and block tables add a few hundred bytes, far less than a wider entry
  // would add.
  RtoLedger ledger(kPages);
  const std::size_t empty = ledger.memory_bytes();
  const std::uint32_t n = 2 * kBlock + 17;
  const auto parked = park_run(ledger, 0, 1000, 0, n);
  EXPECT_EQ(ledger.size(parked.group), n);
  const std::size_t pool = 3 * 16 * 1024;  // three blocks
  const std::size_t grown = ledger.memory_bytes() - empty;
  EXPECT_GE(grown, pool);
  EXPECT_LT(grown, pool + 1024) << "a parked entry takes more than 4 B";

  RtoLedger::Snapshot snap;
  ledger.capture(snap);
  EXPECT_EQ(snap.entries.size(), n);
  EXPECT_EQ(sizeof(snap.entries[0]), 4u);
}

TEST(CohortParts, MultinomialCountsConserveAndMatchDistribution) {
  const MarkovChain chain({{0.5, 0.3, 0.2}, {0.1, 0.6, 0.3}, {0.2, 0.2, 0.6}},
                          {0.6, 0.3, 0.1});
  Rng rng(11);
  std::vector<std::int64_t> counts(3, 0);
  const std::int64_t n = 1'000'000;
  chain.sample_transition_counts(0, n, rng, counts);
  EXPECT_EQ(counts[0] + counts[1] + counts[2], n);
  EXPECT_NEAR(static_cast<double>(counts[0]) / static_cast<double>(n), 0.5, 0.005);
  EXPECT_NEAR(static_cast<double>(counts[1]) / static_cast<double>(n), 0.3, 0.005);

  std::fill(counts.begin(), counts.end(), 0);
  chain.sample_initial_counts(n, rng, counts);
  EXPECT_EQ(counts[0] + counts[1] + counts[2], n);
  EXPECT_NEAR(static_cast<double>(counts[0]) / static_cast<double>(n), 0.6, 0.005);
}

TEST(CohortParts, BinomialEdgeCases) {
  Rng rng(3);
  EXPECT_EQ(rng.binomial(0, 0.5), 0);
  EXPECT_EQ(rng.binomial(100, 0.0), 0);
  EXPECT_EQ(rng.binomial(100, 1.0), 100);
  const std::int64_t k = rng.binomial(1'000'000, 0.25);
  EXPECT_NEAR(static_cast<double>(k), 250'000.0, 2'500.0);
}

// -- population behaviour ---------------------------------------------------

struct Fixture {
  Simulator sim;
  queueing::NTierSystem system;
  RequestRouter router;
  explicit Fixture(std::vector<queueing::TierConfig> tiers = {{"front", 200, 4},
                                                              {"back", 100, 2}})
      : system(sim, std::move(tiers)), router(system) {}
};

ClientConfig cohort_config(int users) {
  ClientConfig config;
  config.num_users = users;
  config.mode = ClientMode::kCohort;
  return config;
}

/// A system that holds every request it admits until `drop_at`, drops them
/// all at that instant through its drop callback, then serves each later
/// request in `service`. It reports the (user, first send) of each drop.
class HoldThenDropSystem : public queueing::RequestSystem {
 public:
  HoldThenDropSystem(Simulator& sim, std::size_t depth, SimTime drop_at, SimTime service)
      : sim_(sim), depth_(depth), service_(service) {
    pool_.set_depth(depth);
    sim_.schedule_at(drop_at, [this] { drop_held(); });
  }
  std::size_t depth() const override { return depth_; }
  bool submit(queueing::Request* req) override {
    ++submitted_;
    ++in_flight_;
    if (!dropped_held_) {
      held_.push_back(req);
    } else {
      sim_.schedule_in(service_, [this, req] { finish(req); });
    }
    return true;
  }
  const std::vector<std::pair<std::int32_t, SimTime>>& drops() const { return drops_; }

 private:
  void drop_held() {
    dropped_held_ = true;
    for (queueing::Request* req : held_) {
      --in_flight_;
      ++dropped_;
      drops_.emplace_back(req->user, req->first_sent());
      on_drop_(*req);
      pool_.release(req);
    }
    held_.clear();
  }
  void finish(queueing::Request* req) {
    --in_flight_;
    ++completed_;
    on_complete_(*req);
    pool_.release(req);
  }

  Simulator& sim_;
  std::size_t depth_;
  SimTime service_;
  bool dropped_held_ = false;
  std::vector<queueing::Request*> held_;
  std::vector<std::pair<std::int32_t, SimTime>> drops_;
};

TEST(CohortClients, SameInstantDropsKeepTheirOwnFirstSends) {
  // A system that reports its own drops can drop requests first sent at
  // different instants at one instant and attempt: here every request held
  // at 800 ms. The drops share a deadline, not a first send, so they park
  // in consecutive groups of that deadline, one per first send, and each
  // retransmitted completion reports the time since its own first send.
  Simulator sim;
  WorkloadProfile profile = rubbos_profile();
  profile.think_time_mean = sec(std::int64_t{1});
  HoldThenDropSystem system(sim, profile.num_tiers(), msec(800), msec(5));
  RequestRouter router(system);
  ClosedLoopClients clients(sim, router, profile, cohort_config(60), Rng(3));
  std::vector<CompletionEvent> retransmitted;
  clients.set_completion_observer([&](const CompletionEvent& ev) {
    if (ev.attempt > 0) retransmitted.push_back(ev);
  });
  clients.start();
  sim.run_until(msec(800) + 1);

  const std::vector<std::pair<std::int32_t, SimTime>>& drops = system.drops();
  ASSERT_GE(drops.size(), 20u);
  EXPECT_EQ(clients.dropped_attempts(), static_cast<std::int64_t>(drops.size()));
  const RtoLedger& ledger = clients.rto_ledger();
  EXPECT_EQ(ledger.backlog(), static_cast<int>(drops.size()));
  const std::vector<std::uint32_t> groups = due_order(ledger, 0);
  ASSERT_GE(groups.size(), 10u) << "the drops must span many first sends";
  std::map<std::int32_t, SimTime> first_sent_of;
  for (std::size_t i = 0, d = 0; i < groups.size(); ++i) {
    EXPECT_EQ(ledger.deadline(groups[i]), msec(1800));
    if (i > 0) {
      EXPECT_NE(ledger.first_sent(groups[i]), ledger.first_sent(groups[i - 1]));
    }
    // Each group holds the next run of drops sent at its first send.
    for (std::size_t n = 0; n < ledger.size(groups[i]); ++n, ++d) {
      ASSERT_LT(d, drops.size());
      EXPECT_EQ(drops[d].second, ledger.first_sent(groups[i]));
      first_sent_of[drops[d].first] = drops[d].second;
    }
  }
  ASSERT_EQ(first_sent_of.size(), drops.size()) << "each drop is its own user";

  for (int step = 0; step < 150; ++step) {
    sim.run_for(msec(10));
    ASSERT_EQ(clients.idle_users() + clients.user_slots().live(), 60)
        << "at " << format_time(sim.now());
  }
  ASSERT_EQ(retransmitted.size(), drops.size());
  for (const CompletionEvent& ev : retransmitted) {
    EXPECT_EQ(ev.attempt, 1);
    EXPECT_EQ(ev.now, msec(1805));
    ASSERT_EQ(first_sent_of.count(ev.user), 1u);
    EXPECT_EQ(ev.first_sent, first_sent_of[ev.user]) << "user " << ev.user;
    EXPECT_EQ(ev.rt, ev.now - first_sent_of[ev.user]) << "user " << ev.user;
  }
  EXPECT_EQ(clients.retransmitted_completions(), static_cast<std::int64_t>(drops.size()));
  EXPECT_EQ(ledger.backlog(), 0);
}

TEST(CohortClients, ThroughputApproximatesUsersOverThinkTime) {
  Fixture f;
  ClosedLoopClients clients(f.sim, f.router,
                            uniform_profile({100.0, 500.0}, sec(std::int64_t{1})),
                            cohort_config(1000), Rng(1));
  clients.start();
  f.sim.run_until(sec(std::int64_t{100}));
  // N / (Z + tick/2 + R): the tick grid quantization adds ~25 ms to the
  // effective 1 s think time, so expect ~2.5% below N/Z.
  EXPECT_NEAR(clients.throughput(), 975.0, 30.0);
  EXPECT_EQ(clients.dropped_attempts(), 0);
}

TEST(CohortClients, PopulationIsConserved) {
  Fixture f;
  ClosedLoopClients clients(f.sim, f.router,
                            uniform_profile({100.0, 500.0}, sec(std::int64_t{7})),
                            cohort_config(2000), Rng(2));
  clients.start();
  for (int step = 0; step < 150; ++step) {
    f.sim.run_for(msec(100));
    // Every user is idle (or still ramping up) xor holds a live slot
    // (request or RTO in flight).
    EXPECT_EQ(clients.idle_users() + clients.user_slots().live(), 2000);
    EXPECT_LE(f.system.in_flight(), 2000);
  }
  // Slot ids stay compact: bounded by the concurrent in-flight + parked-RTO
  // population (here: sub-millisecond service against a 7 s think time),
  // far below the total population.
  EXPECT_LT(clients.user_slots().high_water(), 200u);
}

TEST(CohortClients, RetransmitsAfterRtoAndAbandons) {
  // Tiny saturated system: most sends bounce off the full front queue.
  Fixture f({{"front", 2, 1}, {"back", 1, 1}});
  ClientConfig config = cohort_config(30);
  config.max_retries = 2;
  ClosedLoopClients clients(f.sim, f.router,
                            uniform_profile({100.0, 50000.0}, sec(std::int64_t{1})), config,
                            Rng(4));
  clients.start();
  f.sim.run_until(sec(std::int64_t{60}));
  EXPECT_GT(clients.dropped_attempts(), 0);
  EXPECT_GT(clients.retransmitted_completions() + clients.failed(), 0);
  // Retransmitted completions pay at least the 1 s RTO.
  EXPECT_GE(clients.response_times().max(), sec(std::int64_t{1}));
  EXPECT_EQ(clients.idle_users() + clients.user_slots().live(), 30);
  EXPECT_GE(clients.rto_backlog(), 0);
}

TEST(CohortClients, TandemDropsSettleOneAtATime) {
  // A tandem system always reports accepting(), so every attempt is
  // submitted and each drop (front rejection or interior overflow) comes
  // back through on_drop, already counted and traced by the system.
  Simulator sim;
  queueing::TandemQueueSystem system(sim, {{"front", 1, 2}, {"back", 1, 1}});
  RequestRouter router(system);
  ClientConfig config = cohort_config(200);
  config.max_retries = 2;
  ClosedLoopClients clients(sim, router,
                            uniform_profile({4000.0, 8000.0}, sec(std::int64_t{1})), config,
                            Rng(6));
  clients.start();
  sim.run_until(sec(std::int64_t{60}));
  EXPECT_GT(clients.dropped_attempts(), 0);
  EXPECT_EQ(clients.dropped_attempts(), system.dropped());
  EXPECT_GT(clients.retransmitted_completions(), 0);
  EXPECT_GT(clients.failed(), 0);
  EXPECT_EQ(clients.idle_users() + clients.user_slots().live(), 200);
}

TEST(CohortClients, ImmediateAbandonsHandTheTopFreeIdBack) {
  // max_retries = 0: every door drop is a fresh first attempt, abandoned at
  // once. Each drop takes the top free id and hands it straight back, so
  // all drops of one rejected burst carry the same id and the high water
  // grows by at most one per burst; taking k ids and returning them would
  // trace k ids and leave another free list. Traced with exact demands, so
  // each drop also draws its demands. The constants pin the trace and the
  // allocator's state.
  MEMCA_SKIP_IF_TRACE_DISABLED();
  trace::TraceRecorder recorder;
  Fixture f({{"front", 40, 4}, {"back", 20, 1}});
  f.system.set_trace(&recorder);
  ClientConfig config = cohort_config(1000);
  config.max_retries = 0;
  ClosedLoopClients clients(f.sim, f.router,
                            uniform_profile({100.0, 50000.0}, sec(std::int64_t{1})), config,
                            Rng(12));
  clients.set_trace(&recorder);
  clients.start();
  f.sim.run_until(sec(std::int64_t{30}));

  std::int64_t abandons = 0;
  recorder.for_each([&](const trace::TraceEvent& ev) {
    abandons += ev.kind == trace::EventKind::kAbandon;
  });
  EXPECT_EQ(abandons, clients.failed());
  EXPECT_EQ(clients.failed(), clients.dropped_attempts());
  EXPECT_EQ(clients.idle_users() + clients.user_slots().live(), 1000);

  EXPECT_EQ(recorder.size(), 57522u);
  EXPECT_EQ(abandons, 27898);
  EXPECT_EQ(clients.completed(), 562);
  EXPECT_EQ(tests::trace_hash(recorder), 5198515440522455624ull);
  // 40 users hold the front tier's 40 threads; every drop reused one id.
  const auto [free_ids, high_water, live] = slot_state(clients.user_slots());
  EXPECT_EQ(high_water, 41u);
  EXPECT_EQ(live, 40);
  EXPECT_EQ(free_ids, std::vector<std::uint32_t>{40});
}

TEST(CohortClients, PopulationHoldsOneEngineEvent) {
  // The saturated two-tier system above, with the default max_retries: RTO
  // groups queue at several attempts while every tick scatters sends over
  // its sub-slots. The population's think tick, sub-slot sends and level
  // heads wait in its agenda behind one engine event, so the engine holds
  // that event plus one completion per busy worker.
  Fixture f({{"front", 40, 4}, {"back", 20, 1}});
  ClosedLoopClients clients(f.sim, f.router,
                            uniform_profile({100.0, 50000.0}, sec(std::int64_t{1})),
                            cohort_config(1000), Rng(12));
  clients.start();
  int deep_steps = 0;
  for (int step = 0; step < 3000; ++step) {
    f.sim.run_for(msec(10));
    const std::size_t in_service = static_cast<std::size_t>(
        f.system.tier(0).in_service() + f.system.tier(1).in_service());
    ASSERT_LE(f.sim.pending_events(), 1 + in_service) << "at " << format_time(f.sim.now());
    const RtoLedger& ledger = clients.rto_ledger();
    int levels = 0;
    for (std::size_t a = 0; a < ledger.levels(); ++a) {
      levels += ledger.due(static_cast<int>(a)) != RtoLedger::kNone;
    }
    deep_steps += levels >= 3;
  }
  EXPECT_GT(deep_steps, 1000) << "RTO groups must queue at three attempts or more";
  EXPECT_GT(clients.dropped_attempts(), 0);
}

TEST(CohortClients, DeterministicAcrossRuns) {
  auto run_once = [] {
    Fixture f;
    ClosedLoopClients clients(f.sim, f.router,
                              uniform_profile({100.0, 500.0}, sec(std::int64_t{1})),
                              cohort_config(500), Rng(7));
    clients.start();
    f.sim.run_until(sec(std::int64_t{30}));
    return std::tuple<std::int64_t, SimTime, std::uint64_t>(
        clients.completed(), clients.response_times().quantile(0.9),
        f.sim.events_executed());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(CohortClients, ResponseSeriesIsOptIn) {
  Fixture f;
  ClosedLoopClients clients(f.sim, f.router,
                            uniform_profile({100.0, 500.0}, sec(std::int64_t{1})),
                            cohort_config(100), Rng(9));
  clients.start();
  f.sim.run_until(sec(std::int64_t{10}));
  EXPECT_GT(clients.completed(), 0);
  // Off by default: the histogram records, the raw series stays empty.
  EXPECT_GT(clients.response_times().count(), 0);
  EXPECT_TRUE(clients.response_series().empty());
}

TEST(CohortClients, SteadyStateAllocatesNothing) {
  // A drop-heavy cohort population at steady state: think tick, batched
  // sends, RTO ledger churn and group timers must all run out of recycled
  // storage. The wheel-bucket grids below mirror SteadyStateAllocation's
  // warming: without them a re-dropped retry occasionally arms a new RTO
  // group timer into a wheel bucket at an occupancy that beats the bucket's
  // historic maximum — one amortised capacity-growth allocation, which is
  // exactly what the armed counter would flag.
  Fixture f({{"front", 12, 2}, {"back", 8, 1}});
  ClientConfig config = cohort_config(800);
  config.stats_warmup = sec(std::int64_t{590});
  ClosedLoopClients clients(f.sim, f.router,
                            uniform_profile({200.0, 2000.0}, sec(std::int64_t{2})), config,
                            Rng(5));
  clients.start();
  for (SimTime d = msec(140); d < sec(std::int64_t{4}); d += msec(1)) {
    for (int k = 0; k < 2; ++k) f.sim.schedule_in(d, [] {});  // level-0 buckets
  }
  for (SimTime d = sec(std::int64_t{4}); d < sec(std::int64_t{268}); d += msec(33)) {
    for (int k = 0; k < 8; ++k) f.sim.schedule_in(d, [] {});  // level-1 buckets
  }

  // Warm past a full level-1 wheel rotation (268 s) so the RTO group timers
  // (1 s .. 64 s backoffs) have cycled through every bucket index they can
  // reach with the grid-warmed capacities in place.
  f.sim.run_until(sec(std::int64_t{600}));
  const std::int64_t warm_completed = clients.completed();
  ASSERT_GT(warm_completed, 10000) << "warm-up must reach steady state";
  ASSERT_GT(clients.dropped_attempts(), 0) << "config must exercise the RTO ledger";

  std::int64_t allocations = 0;
  {
    tests::ScopedAllocationCounter counter;
    f.sim.run_for(sec(std::int64_t{30}));
    allocations = counter.count();
  }
  EXPECT_GT(clients.completed(), warm_completed + 1000);
  EXPECT_EQ(allocations, 0)
      << "cohort steady state must not touch the heap";
}

/// Groups waiting in every due FIFO of `ledger`.
std::size_t queued_groups(const RtoLedger& ledger) {
  std::size_t n = 0;
  for (std::size_t a = 0; a < ledger.levels(); ++a) {
    n += due_order(ledger, static_cast<int>(a)).size();
  }
  return n;
}

TEST(CohortClients, RtoGroupsWaitBehindOneTimerPerAttempt) {
  // 35,000 cohort users on the 100 us grid under the Fig. 2 attack: the
  // front door rejects most attempts, so the ledger holds thousands of
  // groups. They cost the engine no pending event of their own: the
  // clients' agenda holds one for the whole population.
  testbed::TestbedConfig config;
  config.client_mode = ClientMode::kCohort;
  config.service_quantum_us = 100;
  config.num_users = 35000;
  testbed::RubbosTestbed bed(config);
  bed.start();
  core::MemcaConfig attack_config;
  attack_config.enable_controller = false;
  attack_config.params.burst_length = msec(500);
  attack_config.params.burst_interval = sec(std::int64_t{2});
  attack_config.params.type = cloud::MemoryAttackType::kMemoryLock;
  auto attack = bed.make_attack(attack_config);
  attack->start();

  // Before anything runs the engine holds the world's standing events: the
  // clients' agenda event, the telemetry clock, the attack's and the
  // coupling's own. On top of those, at any instant: at most one
  // completion per thread of each tier.
  const std::size_t standing = bed.sim().pending_events();
  const auto threads =
      static_cast<std::size_t>(config.apache.threads + config.tomcat.threads + config.mysql.threads);
  const std::size_t bound = standing + threads;

  std::size_t most_groups = 0;
  for (int step = 0; step < 200; ++step) {
    bed.sim().run_for(msec(100));
    most_groups = std::max(most_groups, queued_groups(bed.clients().rto_ledger()));
    ASSERT_LE(bed.sim().pending_events(), bound) << "at " << format_time(bed.sim().now());
  }
  EXPECT_GT(most_groups, 4 * bound) << "the ledger must hold thousands of groups";
}

}  // namespace
}  // namespace memca::workload
