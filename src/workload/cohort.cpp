#include "workload/cohort.h"

#include <algorithm>
#include <bit>

namespace memca::workload {

RtoLedger::RtoLedger(std::size_t pages)
    : page_bits_(
          static_cast<std::uint32_t>(std::bit_width(std::max<std::size_t>(pages, 1) - 1))) {
  MEMCA_CHECK_MSG(page_bits_ < 32, "an RTO ledger word needs room for a user id");
}

std::uint32_t RtoLedger::acquire_block() {
  if (free_block_ != kNone) {
    const std::uint32_t block = free_block_;
    free_block_ = blocks_[block][0];
    return block;
  }
  blocks_.push_back(std::make_unique_for_overwrite<Word[]>(kBlockEntries));
  live_.push_back(0);
  return static_cast<std::uint32_t>(blocks_.size() - 1);
}

std::uint32_t RtoLedger::alloc_group() {
  if (group_free_ != kNone) {
    const std::uint32_t g = group_free_;
    group_free_ = groups_[g].next;
    return g;
  }
  groups_.emplace_back();
  return static_cast<std::uint32_t>(groups_.size() - 1);
}

namespace {
// Relabel cannot reproduce one thing a copy into the next attempt's tail
// could do: join a group already labelled with the same (attempt, deadline)
// and first send. That never happens. Only n-tier door settlement relabels,
// and an n-tier system parks at attempt >= 1 only by relabelling. Its fresh
// drops at one instant share their first send and join one attempt-0 group,
// so the groups of each attempt have distinct deadlines, fire at distinct
// instants and relabel to distinct deadlines. Tandem systems always accept,
// so they never relabel.
constexpr const char* kNoJoin =
    "a relabelled RTO group never shares its (attempt, deadline, first send) with another "
    "group";

/// Whether `g` is what a park at (deadline, first send) would join.
bool same_label(const RtoLedger::Group& g, SimTime deadline, SimTime first_sent) {
  return g.deadline == deadline && g.first_sent == first_sent;
}
}  // namespace

RtoLedger::Level& RtoLedger::level_at(int attempt) {
  MEMCA_CHECK_MSG(attempt >= 0 && attempt <= 0xff, "RTO attempt out of range");
  const auto a = static_cast<std::size_t>(attempt);
  if (a >= levels_.size()) levels_.resize(a + 1);
  return levels_[a];
}

void RtoLedger::enqueue(Level& level, std::uint32_t group) {
  Group& g = groups_[group];
  MEMCA_CHECK_MSG(level.due_tail == kNone || groups_[level.due_tail].deadline <= g.deadline,
                  "the deadlines of one RTO attempt never fall");
  g.next = kNone;
  if (level.due_tail == kNone) {
    level.due_head = group;
  } else {
    groups_[level.due_tail].next = group;
  }
  level.due_tail = group;
}

RtoLedger::Parked RtoLedger::open(int attempt, SimTime deadline, SimTime first_sent) {
  Level& level = level_at(attempt);
  // Only the FIFO's tail can be joined: a park never reaches past it.
  const std::uint32_t tail = level.due_tail;
  if (tail != kNone && same_label(groups_[tail], deadline, first_sent)) {
    MEMCA_CHECK_MSG(int{groups_[tail].level} == attempt, kNoJoin);
    return Parked{tail, false};
  }
  const std::uint32_t g = alloc_group();
  groups_[g] = Group{deadline, first_sent, level.tail, 0, 0, kNone,
                     static_cast<std::int16_t>(attempt), static_cast<std::uint8_t>(attempt),
                     false};
  enqueue(level, g);
  return Parked{g, true};
}

void RtoLedger::relabel(std::uint32_t group, std::size_t rejected, SimTime deadline) {
  Level& to = level_at(groups_[group].attempt + 1);
  Group& g = groups_[group];
  MEMCA_DCHECK(rejected > 0 && rejected <= g.size);
  MEMCA_DCHECK(levels_[static_cast<std::size_t>(g.attempt)].due_head != group);
  const std::uint64_t admitted = g.size - rejected;
  if (g.oldest_first) {
    retire(levels_[g.level], g.begin, g.begin + admitted);
    g.begin += admitted;
  } else {
    retire(levels_[g.level], g.begin + rejected, g.begin + g.size);
  }
  g.size = static_cast<std::uint32_t>(rejected);
  MEMCA_CHECK_MSG(
      to.due_tail == kNone || !same_label(groups_[to.due_tail], deadline, g.first_sent),
      kNoJoin);
  g.attempt = static_cast<std::int16_t>(g.attempt + 1);
  g.deadline = deadline;
  g.oldest_first = !g.oldest_first;
  enqueue(to, group);
}

void RtoLedger::free(std::uint32_t group) {
  Group& g = groups_[group];
  MEMCA_DCHECK(g.attempt >= 0);
  MEMCA_DCHECK(levels_[static_cast<std::size_t>(g.attempt)].due_head != group);
  retire(levels_[g.level], g.begin, g.begin + g.size);
  g.attempt = -1;
  g.next = group_free_;
  group_free_ = group;
}

void RtoLedger::retire(Level& level, std::uint64_t lo, std::uint64_t hi) {
  backlog_ -= static_cast<int>(hi - lo);
  while (lo < hi) {
    const std::uint64_t end = std::min(hi, (lo | kBlockMask) + 1);
    std::uint32_t& block = level.blocks[(lo >> kBlockShift) - level.base];
    live_[block] -= static_cast<std::uint32_t>(end - lo);
    if (live_[block] == 0) {
      release_block(block);
      block = kNone;
    }
    lo = end;
  }
  std::size_t dead = 0;
  while (dead < level.blocks.size() && level.blocks[dead] == kNone) ++dead;
  level.blocks.erase(level.blocks.begin(),
                     level.blocks.begin() + static_cast<std::ptrdiff_t>(dead));
  level.base += dead;
}

std::size_t RtoLedger::memory_bytes() const {
  std::size_t bytes = blocks_.size() * kBlockEntries * sizeof(Word) +
                      blocks_.capacity() * sizeof(blocks_[0]) +
                      live_.capacity() * sizeof(std::uint32_t) +
                      levels_.capacity() * sizeof(Level) + groups_.capacity() * sizeof(Group);
  for (const Level& level : levels_) bytes += level.blocks.capacity() * sizeof(std::uint32_t);
  return bytes;
}

void RtoLedger::capture(Snapshot& out) const {
  out.levels.resize(levels_.size());
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    const Level& level = levels_[i];
    out.levels[i] = Snapshot::LevelState{level.tail, level.base, level.blocks.size(),
                                         level.due_head, level.due_tail};
  }
  out.entries.clear();
  for (const Group& g : groups_) {
    if (g.attempt < 0) continue;
    for (std::uint64_t pos = g.begin, stop = g.begin + g.size; pos < stop;) {
      const std::uint64_t end = std::min(stop, (pos | kBlockMask) + 1);
      const Word* first = block_at(g.level, pos) + (pos & kBlockMask);
      out.entries.insert(out.entries.end(), first, first + (end - pos));
      pos = end;
    }
  }
  out.groups.assign(groups_.begin(), groups_.end());
  out.group_free = group_free_;
  out.backlog = backlog_;
}

void RtoLedger::restore(const Snapshot& snap) {
  // The group table and every level's block table only grow between a
  // capture and its restore, so both refill within their capacity.
  groups_.assign(snap.groups.begin(), snap.groups.end());
  group_free_ = snap.group_free;
  backlog_ = snap.backlog;

  if (levels_.size() < snap.levels.size()) levels_.resize(snap.levels.size());
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    Level& level = levels_[i];
    for (std::uint32_t block : level.blocks) {
      if (block == kNone) continue;
      live_[block] = 0;
      release_block(block);
    }
    const Snapshot::LevelState state =
        i < snap.levels.size() ? snap.levels[i] : Snapshot::LevelState{};
    level.tail = state.tail;
    level.base = state.base;
    level.due_head = state.due_head;
    level.due_tail = state.due_tail;
    level.blocks.assign(state.blocks, kNone);
  }
  const Word* src = snap.entries.data();
  for (const Group& g : groups_) {
    if (g.attempt < 0) continue;
    Level& level = levels_[g.level];
    for (std::uint64_t pos = g.begin, stop = g.begin + g.size; pos < stop;) {
      const std::uint64_t end = std::min(stop, (pos | kBlockMask) + 1);
      std::uint32_t& block = level.blocks[(pos >> kBlockShift) - level.base];
      if (block == kNone) block = acquire_block();
      std::copy(src, src + (end - pos), blocks_[block].get() + (pos & kBlockMask));
      live_[block] += static_cast<std::uint32_t>(end - pos);
      src += end - pos;
      pos = end;
    }
  }
}

}  // namespace memca::workload
