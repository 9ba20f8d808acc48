// SoA building blocks for cohort-batched client populations.
//
// A cohort groups statistically identical users (same Markov chain, think
// time, retry policy). Idle members carry no per-user state at all — only a
// per-page-class count — so the population costs O(pages) per think tick
// instead of O(users) timers. Individual identity exists only while a user
// has a request or an RTO in flight, and comes from two POD structures:
//
//  * UserSlotAllocator hands out compact user ids bounded by the *concurrent*
//    in-flight population, not the total one, so downstream user-indexed
//    tables (trace marks, the flight recorder's cutoff table) stay small at
//    3.5M users.
//  * RtoLedger aggregates RFC 6298 retransmission timers: drops that share a
//    (deadline, attempt) — e.g. every member of one same-instant arrival
//    batch bounced off a full front queue — park in one group behind a
//    single simulator timer instead of one timer each. Each attempt level
//    is a FIFO over a shared pool of 64 KB blocks, so parking and firing
//    are sequential passes.
//
// Both only grow, so memca_snapshot capture/restore extends naturally:
// capture copies the live state aside (reusing snapshot capacity), restore
// lays it back without allocating.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/time.h"

namespace memca::workload {

/// Compact id allocator for cohort members that need individual identity.
/// LIFO free list; ids are dense in [0, high_water).
class UserSlotAllocator {
 public:
  std::uint32_t alloc() {
    ++live_;
    if (!free_.empty()) {
      const std::uint32_t id = free_.back();
      free_.pop_back();
      return id;
    }
    return high_water_++;
  }

  void release(std::uint32_t id) {
    MEMCA_DCHECK(live_ > 0);
    MEMCA_DCHECK(id < high_water_);
    --live_;
    free_.push_back(id);
  }

  /// Ids ever handed out — the size any user-indexed side table needs.
  std::uint32_t high_water() const { return high_water_; }
  /// Currently allocated ids (users with a request or RTO in flight).
  std::int64_t live() const { return live_; }

  std::size_t memory_bytes() const { return free_.capacity() * sizeof(std::uint32_t); }

  /// POD-lane checkpoint. Lanes only grow, so restoring a snapshot into the
  /// allocator it came from never allocates.
  struct Snapshot {
    std::vector<std::uint32_t> free;
    std::uint32_t high_water = 0;
    std::int64_t live = 0;
  };

  void capture(Snapshot& out) const {
    out.free.assign(free_.begin(), free_.end());
    out.high_water = high_water_;
    out.live = live_;
  }

  void restore(const Snapshot& snap) {
    free_.resize(snap.free.size());
    std::copy(snap.free.begin(), snap.free.end(), free_.begin());
    high_water_ = snap.high_water;
    live_ = snap.live;
  }

 private:
  std::vector<std::uint32_t> free_;
  std::uint32_t high_water_ = 0;
  std::int64_t live_ = 0;
};

/// Aggregated RFC 6298 retransmission ledger: one FIFO per attempt level
/// over a shared pool of fixed 64 KB blocks of 16-byte entries.
///
/// Drops that share a (deadline, attempt) form one group behind a single
/// simulator timer, so the timer population scales with distinct drop
/// instants, not with dropped users. A level's deadlines are park time plus
/// that level's fixed RTO, so its groups fire in park order: each group is a
/// contiguous position range, and the group that fires is always the range
/// at its level's head. Parking appends at the level's tail and firing pops
/// the head, which makes settling a 3.5M-user drop storm a sequential pass
/// over whole blocks. Blocks emptied at a head go back to the pool, never to
/// the heap, and any level's tail reuses them.
class RtoLedger {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::uint32_t kBlockShift = 12;
  static constexpr std::uint64_t kBlockEntries = std::uint64_t{1} << kBlockShift;
  static constexpr std::uint64_t kBlockMask = kBlockEntries - 1;

  /// One parked retransmission.
  struct Entry {
    SimTime first_sent;
    std::int32_t page;
    std::uint32_t user;
  };
  static_assert(sizeof(Entry) == 16 && kBlockEntries * sizeof(Entry) == 64 * 1024);

  /// A (deadline, attempt) group: positions [begin, begin + size) of its
  /// attempt level. A freed group has attempt -1 and `size` threads the
  /// group free chain.
  struct Group {
    SimTime deadline = 0;
    std::uint64_t begin = 0;
    std::uint32_t size = 0;
    std::int32_t attempt = -1;
  };

  struct Parked {
    std::uint32_t group = kNone;
    /// True when this park opened the group: the caller owns scheduling the
    /// group's (single) fire timer.
    bool opened = false;
  };

  /// Parks one pending retransmission: open() then push().
  Parked park(int attempt, SimTime deadline, std::int32_t page, SimTime first_sent,
              std::uint32_t user) {
    const Parked parked = open(attempt, deadline);
    push(attempt, Entry{first_sent, page, user});
    return parked;
  }

  /// The group later pushes at `attempt` join: the level's open group when
  /// its deadline matches exactly, else a newly opened one.
  Parked open(int attempt, SimTime deadline);

  /// Appends `entry` to the open group of `attempt` (see open()).
  void push(int attempt, const Entry& entry) {
    Level& level = levels_[static_cast<std::size_t>(attempt)];
    MEMCA_DCHECK(level.open != kNone);
    if ((level.tail & kBlockMask) == 0) {
      if (level.blocks.empty()) level.base = level.tail >> kBlockShift;
      level.blocks.push_back(acquire_block());
    }
    blocks_[level.blocks.back()][level.tail & kBlockMask] = entry;
    ++level.tail;
    ++groups_[level.open].size;
    ++backlog_;
  }

  SimTime deadline(std::uint32_t group) const { return groups_[group].deadline; }
  int attempt(std::uint32_t group) const { return groups_[group].attempt; }
  std::size_t size(std::uint32_t group) const { return groups_[group].size; }

  /// Reads one group's entries newest first, block by block. Stays valid
  /// while other levels grow; pop() the group only after the last next().
  class NewestFirst {
   public:
    const Entry& next() {
      --pos_;
      if (block_ == nullptr || (pos_ & kBlockMask) == kBlockMask) {
        block_ = ledger_->block_at(level_, pos_);
      }
      return block_[pos_ & kBlockMask];
    }

   private:
    friend class RtoLedger;
    NewestFirst(const RtoLedger& ledger, std::size_t level, std::uint64_t end)
        : ledger_(&ledger), level_(level), pos_(end) {}
    const RtoLedger* ledger_;
    std::size_t level_;
    std::uint64_t pos_;
    const Entry* block_ = nullptr;
  };

  NewestFirst newest_first(std::uint32_t group) const {
    const Group& g = groups_[group];
    return NewestFirst(*this, static_cast<std::size_t>(g.attempt), g.begin + g.size);
  }

  /// Frees `group`, which must be the oldest group of its level (aborts
  /// otherwise), and returns the blocks it emptied to the pool.
  void pop(std::uint32_t group);

  /// Pops every entry of `group` newest first, invoking
  /// fn(page, first_sent, user), then frees the group.
  template <typename F>
  void drain(std::uint32_t group, F&& fn) {
    NewestFirst it = newest_first(group);
    for (std::size_t n = size(group); n > 0; --n) {
      const Entry& e = it.next();
      fn(e.page, e.first_sent, e.user);
    }
    pop(group);
  }

  /// Timers armed but not yet fired (parked retransmissions).
  int backlog() const { return backlog_; }

  /// The block pool plus the group and level tables.
  std::size_t memory_bytes() const;

  /// Checkpoint: each level's live range, copied out in position order, and
  /// the group table.
  struct Snapshot {
    struct LevelState {
      std::uint64_t head = 0;
      std::uint64_t tail = 0;
      std::uint32_t open = kNone;
    };
    std::vector<LevelState> levels;
    /// Every level's entries [head, tail), level after level.
    std::vector<Entry> entries;
    std::vector<Group> groups;
    std::uint32_t group_free = kNone;
    int backlog = 0;
  };

  void capture(Snapshot& out) const;
  /// Re-lays each captured range at its captured positions. The pool only
  /// grows, so restoring into the ledger a snapshot came from takes every
  /// block from the pool and never allocates.
  void restore(const Snapshot& snap);

 private:
  /// One attempt level's FIFO. `blocks` holds the pool blocks covering
  /// positions [head, tail) rounded out to whole blocks, oldest first;
  /// blocks.front() holds block number `base` (position >> kBlockShift).
  struct Level {
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
    std::uint64_t base = 0;
    std::vector<std::uint32_t> blocks;
    std::uint32_t open = kNone;
  };

  const Entry* block_at(std::size_t level, std::uint64_t pos) const {
    const Level& l = levels_[level];
    return blocks_[l.blocks[(pos >> kBlockShift) - l.base]].get();
  }
  std::uint32_t acquire_block();
  /// A free block threads the pool's free chain through its first entry.
  void release_block(std::uint32_t block) {
    blocks_[block][0].user = free_block_;
    free_block_ = block;
  }
  std::uint32_t alloc_group();

  std::vector<std::unique_ptr<Entry[]>> blocks_;
  std::uint32_t free_block_ = kNone;
  std::vector<Level> levels_;
  std::vector<Group> groups_;
  std::uint32_t group_free_ = kNone;
  int backlog_ = 0;
};

}  // namespace memca::workload
