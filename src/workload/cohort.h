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
//    (deadline, attempt) and a first send — e.g. every member of one
//    same-instant arrival batch bounced off a full front queue — park in one
//    group instead of one timer each, and the groups of each attempt queue up
//    in deadline order, so the owner's agenda waits only for each attempt's
//    earliest one (see ClosedLoopClients). The group keeps what its entries
//    share, so an entry is one 32-bit word (user id and page class), written
//    once, contiguously, over a shared pool of 16 KB blocks; a group that
//    bounces again moves to its next attempt by relabelling, never by
//    copying its entries.
//
// Both only grow, so memca_snapshot capture/restore extends naturally:
// capture copies the live state aside (reusing snapshot capacity), restore
// lays it back without allocating.
//
// Scale limits. A cohort hands out at most one id per user at a time and
// parks each user at most once, so user ids (< high_water <= num_users), the
// ledger's backlog and every group's size are bounded by the population
// size, an int: the u32 ids and sizes and the int backlog cannot overflow.
// The packed word is the one narrower field; the clients reject a
// population whose ids do not fit it (RtoLedger::max_users()).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/time.h"

namespace memca::workload {

static_assert(std::numeric_limits<int>::max() <= std::numeric_limits<std::uint32_t>::max(),
              "ids and group sizes bounded by an int population fit in u32");

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

  /// `n` alloc() calls in one pass: put(i, id) receives the id the i-th
  /// call would return.
  template <typename Put>
  void alloc_n(std::size_t n, Put&& put) {
    live_ += static_cast<std::int64_t>(n);
    const std::size_t reused = std::min(n, free_.size());
    const std::uint32_t* top = free_.data() + free_.size();
    for (std::size_t i = 0; i < reused; ++i) put(i, *--top);
    free_.resize(free_.size() - reused);
    for (std::size_t i = reused; i < n; ++i) put(i, high_water_++);
  }

  /// `n` release() calls in one pass, of id(0), ..., id(n - 1) in order.
  template <typename Id>
  void release_n(std::size_t n, Id&& id) {
    MEMCA_DCHECK(live_ >= static_cast<std::int64_t>(n));
    live_ -= static_cast<std::int64_t>(n);
    const std::size_t base = free_.size();
    free_.resize(base + n);
    for (std::size_t i = 0; i < n; ++i) {
      free_[base + i] = id(i);
      MEMCA_DCHECK(free_[base + i] < high_water_);
    }
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

/// Aggregated RFC 6298 retransmission ledger over a shared pool of fixed
/// 16 KB blocks of 4-byte entries, and the timer queue of its groups.
///
/// Drops that share a (deadline, attempt) and a first send form one group,
/// so the ledger scales with distinct drop instants, not with dropped users.
/// The group keeps the first send; an entry packs the user id above the low
/// page_bits() bits of one word, which hold its page class. In an n-tier
/// system every drop the clients park is a door rejection at the instant of
/// its send, so all drops of one (deadline, attempt) share their first send
/// and no group is ever split by it; only a tandem's interior drops can be.
/// Each attempt level has its own position space: a park appends at the
/// tail of its attempt's level, and the entries of a group stay at those
/// positions for the group's whole life. A group is a position range of the
/// level it was parked at (its home level), a (deadline, attempt) label, its
/// first send, and a drain direction (newest first when parked).
///
/// Every group of one attempt waits the same backoff, so the groups of an
/// attempt fall due in the order they were labelled. Each attempt keeps them
/// in a due FIFO, deadlines non-decreasing; a park joins the FIFO's tail when
/// its deadline and first send match, else opens a group behind it. The
/// owner's agenda holds each non-empty FIFO's head, at its deadline and
/// under its seq: the engine sequence number the group's own timer event
/// would have had (Simulator::reserve_seq). Groups of one deadline therefore
/// fire in FIFO order, which is seq order.
///
/// A fire pops the head and reads it in drain order. When the front tier
/// fills after an admitted prefix, relabel() drops that prefix from the
/// range, moves the group to (attempt + 1, new deadline) in place — to the
/// tail of the next attempt's FIFO — and reverses its drain direction:
/// exactly the order a copy of the rest into the next attempt's tail would
/// drain in, so a re-park touches no entry. The groups of one home level
/// therefore die in any order; each block counts its live entries and
/// returns to the pool (never to the heap) when the last one dies.
///
/// Entries are written and read a block span at a time: append() hands out
/// the rest of the tail block for a park of many drops, and
/// Cursor::next_run() reads one block's worth of a group in drain order,
/// so the owner's bookkeeping costs one call per span, not per user.
class RtoLedger {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::uint32_t kBlockShift = 12;
  static constexpr std::uint64_t kBlockEntries = std::uint64_t{1} << kBlockShift;
  static constexpr std::uint64_t kBlockMask = kBlockEntries - 1;

  /// One parked retransmission as stored: pack(page, user).
  using Word = std::uint32_t;
  static_assert(kBlockEntries * sizeof(Word) == 16 * 1024);

  /// One parked retransmission, decoded.
  struct Entry {
    std::int32_t page;
    std::uint32_t user;
  };

  /// A ledger for page classes [0, pages).
  explicit RtoLedger(std::size_t pages);

  /// The low bits of a word that hold the page class: enough for every page.
  std::uint32_t page_bits() const { return page_bits_; }
  /// The user ids a word holds beside the page class: [0, max_users()).
  std::uint64_t max_users() const { return std::uint64_t{1} << (32 - page_bits_); }
  Word pack(std::int32_t page, std::uint32_t user) const {
    MEMCA_DCHECK(page >= 0 && static_cast<Word>(page) >> page_bits_ == 0);
    MEMCA_DCHECK(user < max_users());
    return user << page_bits_ | static_cast<Word>(page);
  }
  static Entry unpack(Word word, std::uint32_t page_bits) {
    return Entry{static_cast<std::int32_t>(word & ((Word{1} << page_bits) - 1)),
                 word >> page_bits};
  }

  /// A (deadline, attempt) group of entries first sent at `first_sent`:
  /// positions [begin, begin + size) of home level `level`, drained from
  /// `begin` up when `oldest_first`, else from the end down. `next` is the
  /// group behind it in its attempt's due FIFO (kNone at the tail); a freed
  /// group has attempt -1 and `next` threads the group free chain.
  struct Group {
    SimTime deadline = 0;
    SimTime first_sent = 0;
    std::uint64_t begin = 0;
    /// Engine sequence number of the group's fire (see set_seq()).
    std::uint64_t seq = 0;
    /// At most backlog() entries.
    std::uint32_t size = 0;
    std::uint32_t next = kNone;
    std::int16_t attempt = -1;
    std::uint8_t level = 0;
    bool oldest_first = false;
  };

  struct Parked {
    std::uint32_t group = kNone;
    /// True when this park opened the group: the caller owns its seq.
    bool opened = false;
  };

  /// Parks one pending retransmission: open() then append().
  Parked park(int attempt, SimTime deadline, std::int32_t page, SimTime first_sent,
              std::uint32_t user) {
    const Parked parked = open(attempt, deadline, first_sent);
    append(attempt, 1)[0] = pack(page, user);
    return parked;
  }

  /// The group later appends at `attempt` join: the tail of the attempt's
  /// due FIFO when its deadline and first send match exactly, else a newly
  /// opened group appended behind it. Deadlines of one attempt never fall.
  Parked open(int attempt, SimTime deadline, SimTime first_sent);

  /// Appends up to `n` > 0 entries to the tail group of `attempt` (see
  /// open()): as many as fit in the block the level's tail is in. Returns
  /// their words, oldest first, for the caller to write with pack() before
  /// anything reads the group; one call per block span, so a park of k drops
  /// pays the block lookup and the counters once per 4,096 entries.
  std::span<Word> append(int attempt, std::size_t n) {
    Level& level = levels_[static_cast<std::size_t>(attempt)];
    MEMCA_DCHECK(n > 0);
    MEMCA_DCHECK(level.due_tail != kNone && int{groups_[level.due_tail].level} == attempt);
    const std::uint64_t block_no = level.tail >> kBlockShift;
    if (level.blocks.empty()) level.base = block_no;
    if (block_no - level.base == level.blocks.size()) level.blocks.push_back(kNone);
    std::uint32_t& block = level.blocks[block_no - level.base];
    if (block == kNone) block = acquire_block();
    const std::uint64_t offset = level.tail & kBlockMask;
    n = static_cast<std::size_t>(std::min<std::uint64_t>(n, kBlockEntries - offset));
    live_[block] += static_cast<std::uint32_t>(n);
    level.tail += n;
    groups_[level.due_tail].size += static_cast<std::uint32_t>(n);
    backlog_ += static_cast<int>(n);
    return {blocks_[block].get() + offset, n};
  }

  SimTime deadline(std::uint32_t group) const { return groups_[group].deadline; }
  SimTime first_sent(std::uint32_t group) const { return groups_[group].first_sent; }
  int attempt(std::uint32_t group) const { return groups_[group].attempt; }
  std::size_t size(std::uint32_t group) const { return groups_[group].size; }
  std::uint64_t seq(std::uint32_t group) const { return groups_[group].seq; }
  /// Records the engine seq the group fires under, once per open() that
  /// opened it and once per relabel().
  void set_seq(std::uint32_t group, std::uint64_t seq) { groups_[group].seq = seq; }

  /// Attempt levels with tables: one past the highest attempt parked or
  /// relabelled to.
  std::size_t levels() const { return levels_.size(); }
  /// The earliest-due group of `attempt`, kNone when none waits.
  std::uint32_t due(int attempt) const {
    const auto a = static_cast<std::size_t>(attempt);
    return a < levels_.size() ? levels_[a].due_head : kNone;
  }
  /// The group behind `group` in its attempt's due FIFO, kNone at the tail.
  std::uint32_t next_due(std::uint32_t group) const { return groups_[group].next; }
  /// Takes the earliest-due group of `attempt` out of its FIFO: it fires
  /// now. relabel() or free() it once its fire is done.
  std::uint32_t pop_due(int attempt) {
    Level& level = levels_[static_cast<std::size_t>(attempt)];
    const std::uint32_t group = level.due_head;
    MEMCA_DCHECK(group != kNone);
    level.due_head = groups_[group].next;
    if (level.due_head == kNone) level.due_tail = kNone;
    return group;
  }

  /// Entries of one block in drain order: run[i] is the i-th drained, all
  /// first sent at `first_sent`. The step is +1 (oldest first), -1 (newest
  /// first) or 0 (`size` drops that carry one word).
  struct Run {
    const Word* first = nullptr;
    std::ptrdiff_t step = 1;
    std::size_t size = 0;
    SimTime first_sent = 0;
    std::uint32_t page_bits = 0;
    Entry operator[](std::size_t i) const {
      return unpack(first[static_cast<std::ptrdiff_t>(i) * step], page_bits);
    }
  };

  /// Reads one group's entries in drain order, one at a time or a block
  /// span at a time. Stays valid while other groups grow; relabel() or
  /// free() the group only after the last read.
  class Cursor {
   public:
    Entry next() {
      std::uint64_t pos;
      bool crossed;
      if (forward_) {
        pos = pos_++;
        crossed = (pos & kBlockMask) == 0;
      } else {
        pos = --pos_;
        crossed = (pos & kBlockMask) == kBlockMask;
      }
      if (block_ == nullptr || crossed) block_ = ledger_->block_at(level_, pos);
      return unpack(block_[pos & kBlockMask], ledger_->page_bits_);
    }

    /// The next entries in drain order, at most `max` > 0 and all in one
    /// block.
    Run next_run(std::size_t max) {
      const std::uint64_t room =
          forward_ ? kBlockEntries - (pos_ & kBlockMask) : ((pos_ - 1) & kBlockMask) + 1;
      const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(max, room));
      const std::uint64_t lo = forward_ ? pos_ : pos_ - n;
      pos_ = forward_ ? pos_ + n : lo;
      block_ = ledger_->block_at(level_, lo);
      const Word* first = block_ + (lo & kBlockMask);
      return forward_ ? Run{first, 1, n, first_sent_, ledger_->page_bits_}
                      : Run{first + (n - 1), -1, n, first_sent_, ledger_->page_bits_};
    }

    /// The group's first send, shared by every entry the cursor reads.
    SimTime first_sent() const { return first_sent_; }

   private:
    friend class RtoLedger;
    Cursor(const RtoLedger& ledger, const Group& group)
        : ledger_(&ledger),
          level_(group.level),
          pos_(group.oldest_first ? group.begin : group.begin + group.size),
          first_sent_(group.first_sent),
          forward_(group.oldest_first) {}
    const RtoLedger* ledger_;
    std::size_t level_;
    std::uint64_t pos_;
    SimTime first_sent_;
    bool forward_;
    const Word* block_ = nullptr;
  };

  Cursor cursor(std::uint32_t group) const { return Cursor(*this, groups_[group]); }

  /// A fire admitted all but the last `rejected` entries of `group` (popped
  /// by pop_due()) in drain order: the admitted prefix leaves the ledger,
  /// and the rest move to (attempt + 1, `deadline`) in place, draining in
  /// reverse order from now on. The group joins the tail of its new
  /// attempt's FIFO.
  void relabel(std::uint32_t group, std::size_t rejected, SimTime deadline);

  /// Retires every entry left in `group` (popped by pop_due()) and frees it.
  void free(std::uint32_t group);

  /// Reads every entry of `group` in drain order, invoking
  /// fn(page, first_sent, user), then frees the group.
  template <typename F>
  void drain(std::uint32_t group, F&& fn) {
    Cursor it = cursor(group);
    for (std::size_t n = size(group); n > 0; --n) {
      const Entry e = it.next();
      fn(e.page, it.first_sent(), e.user);
    }
    free(group);
  }

  /// Timers armed but not yet fired (parked retransmissions). At most one
  /// per user, so an int population keeps it in range.
  int backlog() const { return backlog_; }

  /// The block pool plus the group and level tables.
  std::size_t memory_bytes() const;

  /// Checkpoint: each level's position state and due FIFO ends, every live
  /// group's words copied out in position order, and the group table
  /// (which threads the FIFOs and keeps each group's first send).
  struct Snapshot {
    struct LevelState {
      std::uint64_t tail = 0;
      std::uint64_t base = 0;
      std::size_t blocks = 0;
      std::uint32_t due_head = kNone;
      std::uint32_t due_tail = kNone;
    };
    std::vector<LevelState> levels;
    /// Each live group's range, group after group in table order.
    std::vector<Word> entries;
    std::vector<Group> groups;
    std::uint32_t group_free = kNone;
    int backlog = 0;
  };

  void capture(Snapshot& out) const;
  /// Re-lays each captured range at its captured positions. The pool and the
  /// level tables only grow, so restoring into the ledger a snapshot came
  /// from takes every block from the pool and never allocates.
  void restore(const Snapshot& snap);

 private:
  /// One attempt level: its position space, where `blocks` maps block
  /// numbers [base, base + blocks.size()) to pool blocks, kNone where every
  /// entry has died (the front entry is never kNone), and the due FIFO of
  /// the groups labelled with this attempt.
  struct Level {
    std::uint64_t tail = 0;
    std::uint64_t base = 0;
    std::vector<std::uint32_t> blocks;
    std::uint32_t due_head = kNone;
    std::uint32_t due_tail = kNone;
  };

  const Word* block_at(std::size_t level, std::uint64_t pos) const {
    const Level& l = levels_[level];
    return blocks_[l.blocks[(pos >> kBlockShift) - l.base]].get();
  }
  /// The level of `attempt`, its tables grown on first use.
  Level& level_at(int attempt);
  /// Appends `group` (labelled with the level's attempt) to the due FIFO.
  void enqueue(Level& level, std::uint32_t group);
  std::uint32_t acquire_block();
  /// Entries at positions [lo, hi) of `level` die; blocks left with no live
  /// entry go back to the pool.
  void retire(Level& level, std::uint64_t lo, std::uint64_t hi);
  /// A free block threads the pool's free chain through its first word.
  void release_block(std::uint32_t block) {
    blocks_[block][0] = free_block_;
    free_block_ = block;
  }
  std::uint32_t alloc_group();

  std::vector<std::unique_ptr<Word[]>> blocks_;
  /// Live entries per pool block.
  std::vector<std::uint32_t> live_;
  std::uint32_t free_block_ = kNone;
  std::uint32_t page_bits_;
  std::vector<Level> levels_;
  std::vector<Group> groups_;
  std::uint32_t group_free_ = kNone;
  int backlog_ = 0;
};

}  // namespace memca::workload
