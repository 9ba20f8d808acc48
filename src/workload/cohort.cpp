#include "workload/cohort.h"

#include <algorithm>

namespace memca::workload {

std::uint32_t RtoLedger::acquire_block() {
  if (free_block_ != kNone) {
    const std::uint32_t block = free_block_;
    free_block_ = blocks_[block][0].user;
    return block;
  }
  blocks_.push_back(std::make_unique_for_overwrite<Entry[]>(kBlockEntries));
  return static_cast<std::uint32_t>(blocks_.size() - 1);
}

std::uint32_t RtoLedger::alloc_group() {
  if (group_free_ != kNone) {
    const std::uint32_t g = group_free_;
    group_free_ = groups_[g].size;
    return g;
  }
  groups_.emplace_back();
  return static_cast<std::uint32_t>(groups_.size() - 1);
}

RtoLedger::Parked RtoLedger::open(int attempt, SimTime deadline) {
  MEMCA_DCHECK(attempt >= 0);
  const auto a = static_cast<std::size_t>(attempt);
  if (a >= levels_.size()) levels_.resize(a + 1);
  // Deadlines for a given attempt grow strictly with time, so an open group
  // whose deadline differs can never be joined again; replace it.
  const std::uint32_t open = levels_[a].open;
  if (open != kNone && groups_[open].deadline == deadline) return Parked{open, false};
  const std::uint32_t g = alloc_group();
  groups_[g] = Group{deadline, levels_[a].tail, 0, attempt};
  levels_[a].open = g;
  return Parked{g, true};
}

void RtoLedger::pop(std::uint32_t group) {
  Group& g = groups_[group];
  MEMCA_CHECK(g.attempt >= 0);
  Level& level = levels_[static_cast<std::size_t>(g.attempt)];
  MEMCA_CHECK_MSG(g.begin == level.head,
                  "an RTO group fires only after every older group of its attempt");
  level.head += g.size;
  backlog_ -= static_cast<int>(g.size);
  if (level.open == group) level.open = kNone;
  // Blocks wholly before the new head hold nothing live any more.
  const std::uint64_t keep = level.head >> kBlockShift;
  std::size_t emptied = 0;
  while (emptied < level.blocks.size() && level.base + emptied < keep) {
    release_block(level.blocks[emptied++]);
  }
  level.blocks.erase(level.blocks.begin(),
                     level.blocks.begin() + static_cast<std::ptrdiff_t>(emptied));
  level.base += emptied;
  g.attempt = -1;
  g.size = group_free_;
  group_free_ = group;
}

std::size_t RtoLedger::memory_bytes() const {
  std::size_t bytes = blocks_.size() * kBlockEntries * sizeof(Entry) +
                      blocks_.capacity() * sizeof(blocks_[0]) +
                      levels_.capacity() * sizeof(Level) + groups_.capacity() * sizeof(Group);
  for (const Level& level : levels_) bytes += level.blocks.capacity() * sizeof(std::uint32_t);
  return bytes;
}

void RtoLedger::capture(Snapshot& out) const {
  out.levels.resize(levels_.size());
  out.entries.clear();
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    const Level& level = levels_[i];
    out.levels[i] = Snapshot::LevelState{level.head, level.tail, level.open};
    for (std::uint64_t pos = level.head; pos < level.tail;) {
      const std::uint64_t end = std::min(level.tail, (pos | kBlockMask) + 1);
      const Entry* first = block_at(i, pos) + (pos & kBlockMask);
      out.entries.insert(out.entries.end(), first, first + (end - pos));
      pos = end;
    }
  }
  out.groups.assign(groups_.begin(), groups_.end());
  out.group_free = group_free_;
  out.backlog = backlog_;
}

void RtoLedger::restore(const Snapshot& snap) {
  // The group table and every level's block list only grow between a
  // capture and its restore, so both refill within their capacity.
  groups_.assign(snap.groups.begin(), snap.groups.end());
  group_free_ = snap.group_free;
  backlog_ = snap.backlog;

  if (levels_.size() < snap.levels.size()) levels_.resize(snap.levels.size());
  for (Level& level : levels_) {
    for (std::uint32_t block : level.blocks) release_block(block);
    level.blocks.clear();
    level.head = level.tail = level.base = 0;
    level.open = kNone;
  }
  const Entry* src = snap.entries.data();
  for (std::size_t i = 0; i < snap.levels.size(); ++i) {
    const Snapshot::LevelState& state = snap.levels[i];
    Level& level = levels_[i];
    level.head = state.head;
    level.tail = state.tail;
    level.open = state.open;
    level.base = state.head >> kBlockShift;
    const std::uint64_t end_block = (state.tail + kBlockMask) >> kBlockShift;
    for (std::uint64_t b = level.base; b < end_block; ++b) {
      level.blocks.push_back(acquire_block());
    }
    for (std::uint64_t pos = state.head; pos < state.tail;) {
      const std::uint64_t end = std::min(state.tail, (pos | kBlockMask) + 1);
      std::copy(src, src + (end - pos),
                blocks_[level.blocks[(pos >> kBlockShift) - level.base]].get() +
                    (pos & kBlockMask));
      src += end - pos;
      pos = end;
    }
  }
}

}  // namespace memca::workload
