#include "trace/recorder.h"

#include <bit>

#include "trace/trace_event.h"

namespace memca::trace {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kComplete:
      return "complete";
    case EventKind::kRetransmit:
      return "retransmit";
    case EventKind::kAbandon:
      return "abandon";
    case EventKind::kTierSpan:
      return "tier-span";
    case EventKind::kDrop:
      return "drop";
    case EventKind::kCapacity:
      return "capacity";
    case EventKind::kBurstOn:
      return "burst-on";
    case EventKind::kBurstOff:
      return "burst-off";
    case EventKind::kLockWaitSpan:
      return "lock-wait-span";
  }
  return "?";
}

namespace {

// Retired chunks, parked per thread. Handing a warm chunk to the next
// recorder keeps its pages resident: glibc trims freed 80 KB blocks back to
// the OS under load, so without the pool every fresh testbed (one per sweep
// cell, one per benchmark iteration) page-faults its whole store in again.
// Chunk contents are garbage to a new recorder (slots are written before
// they are ever read), so reuse is a pointer handoff. The cap bounds idle
// memory at ~5 MB per thread: two default flight rings' worth.
constexpr std::size_t kPoolMaxChunks = 64;
thread_local std::vector<std::unique_ptr<TraceEvent[]>> chunk_pool;

std::unique_ptr<TraceEvent[]> take_chunk(std::size_t events) {
  if (chunk_pool.empty()) {
    // for_overwrite: events are written before they are ever read, so the
    // zero-fill of a plain make_unique would be pure overhead.
    return std::make_unique_for_overwrite<TraceEvent[]>(events);
  }
  std::unique_ptr<TraceEvent[]> chunk = std::move(chunk_pool.back());
  chunk_pool.pop_back();
  return chunk;
}

}  // namespace

TraceRecorder::TraceRecorder(Config config) {
#ifndef MEMCA_TRACE_DISABLED
  if (config.capacity != 0) {
    chunks_.resize(std::bit_ceil((config.capacity + kChunkMask) >> kChunkShift));
    for (auto& chunk : chunks_) chunk = take_chunk(kChunkEvents);
    chunk_mask_ = chunks_.size() - 1;
  }
#else
  (void)config;
#endif
}

TraceRecorder::~TraceRecorder() {
  for (auto& chunk : chunks_) {
    if (chunk_pool.size() >= kPoolMaxChunks) break;
    chunk_pool.push_back(std::move(chunk));
  }
}

void TraceRecorder::next_chunk() {
  const std::size_t pos = total_recorded();
  const std::size_t index = (pos >> kChunkShift) & chunk_mask_;
  // Only an unbounded store runs out: a bounded one's index wraps first.
  if (index == chunks_.size()) chunks_.push_back(take_chunk(kChunkEvents));
  base_ = pos;
  chunk_begin_ = cursor_ = chunks_[index].get();
  chunk_end_ = chunk_begin_ + kChunkEvents;
}

}  // namespace memca::trace
