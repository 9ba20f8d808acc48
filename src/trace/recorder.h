// Low-overhead append-only span-event recorder.
//
// A TraceRecorder owns the span-event stream of one simulation (one
// RubbosTestbed, one sweep cell) and appends from the single thread driving
// that cell's Simulator, so recording needs no synchronisation and a
// parallel sweep stays bit-identical to a sequential run: a cell's stream
// depends only on its own event order, never on which worker thread ran it.
//
// Events live in fixed-size chunks, and Config::capacity picks how many are
// kept:
//
//  * 0 (default, unbounded): every event is kept and chunks are added as
//    traffic grows. This is the debug/offline store behind full Perfetto
//    exports and exact whole-run attribution; its memory cannot stay
//    resident in a production-scale (million-user) run.
//  * > 0 (bounded): the newest `capacity` events are kept. The capacity is
//    rounded up to a power-of-two number of chunks, all taken at
//    construction and reused in rotation, so memory is fixed and
//    steady-state recording allocates nothing. This is the always-on
//    flight-recorder ring (see src/flightrec): the IncidentDetector pins the
//    spans of slow requests by copying them out the moment the request
//    completes, before rotation can evict them.
//
// Event number `pos` lives at chunks_[(pos >> 11) & chunk_mask_][pos & 2047];
// the mask is all ones when unbounded, so both kinds of store share one
// index formula, one chunk turnover and one checkpoint.
//
// Hot-path cost when tracing is off is a null-pointer check at each hook
// site (see emit()). Configuring CMake with -DMEMCA_TRACE=OFF defines
// MEMCA_TRACE_DISABLED and compiles the hooks out to nothing.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "trace/trace_event.h"

namespace memca::trace {

class TraceRecorder {
 public:
  struct Config {
    /// 0 keeps every event. > 0 keeps the newest `capacity` events, rounded
    /// up to a power-of-two number of 2,048-event chunks allocated at
    /// construction.
    std::size_t capacity = 0;
  };

  TraceRecorder() = default;
  explicit TraceRecorder(Config config);
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;
  /// Parks the chunks in a thread-local pool for the next recorder on this
  /// thread (a sweep runs one testbed per cell; without the pool each fresh
  /// cell would page-fault its whole store back in).
  ~TraceRecorder();

  /// Appends one event. Events must be appended in causal (time-
  /// nondecreasing) order — the attributor and exporters rely on it, and
  /// every Simulator-driven hook satisfies it by construction.
  ///
  /// The fast path is one pointer compare plus the 40-byte store; chunk
  /// turnover lives out of line in next_chunk().
  void record(const TraceEvent& event) {
#ifndef MEMCA_TRACE_DISABLED
    if (cursor_ == chunk_end_) [[unlikely]] next_chunk();
    *cursor_++ = event;
#else
    (void)event;
#endif
  }

  /// Retained events: everything recorded, saturating at the capacity once
  /// a bounded store wraps.
  std::size_t size() const {
    const std::size_t total = total_recorded();
    const std::size_t cap = capacity();
    return cap != 0 && total > cap ? cap : total;
  }
  bool empty() const { return size() == 0; }

  /// Every event ever recorded, including evicted ones.
  std::size_t total_recorded() const {
    return cursor_ == nullptr ? 0 : base_ + static_cast<std::size_t>(cursor_ - chunk_begin_);
  }

  /// Bounded stores only: true once the oldest events have been evicted.
  bool wrapped() const { return size() < total_recorded(); }

  /// Bytes of event storage currently allocated. Constant for the lifetime
  /// of a bounded store (the memory budget flightrec builds on); grows with
  /// traffic when unbounded.
  std::size_t bytes_retained() const {
    return chunks_.size() * kChunkEvents * sizeof(TraceEvent);
  }

  /// Indexing is in causal order over the *retained* window: [0] is the
  /// oldest retained event, [size()-1] the newest.
  const TraceEvent& operator[](std::size_t i) const {
    MEMCA_DCHECK(i < size());
    return slot(total_recorded() - size() + i);
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t n = size();
    const std::size_t first = total_recorded() - n;
    for (std::size_t i = 0; i < n; ++i) fn(std::as_const(slot(first + i)));
  }

  /// Forgets all events but keeps the allocated chunks for reuse.
  void clear() {
    base_ = 0;
    chunk_begin_ = chunk_end_ = cursor_ = nullptr;
  }

  /// Checkpoint. The state is the event count, plus — for a bounded store,
  /// where a later wrap overwrites pre-checkpoint events in place — a copy
  /// of the retained window (the one place a bounded store may allocate).
  /// restore() never allocates: it rewinds the cursor into the chunks
  /// already held and writes a bounded store's window back into the exact
  /// slots it came from, so post-rollback replay is byte-identical to the
  /// original run. Events past the mark are garbage that is overwritten
  /// before size() ever exposes it.
  struct Snapshot {
    std::size_t size = 0;
    std::vector<TraceEvent> events;  // bounded only: retained window, causal order
  };

  void capture(Snapshot& out) const {
    out.size = total_recorded();
    out.events.resize(capacity() == 0 ? 0 : size());
    const std::size_t first = out.size - out.events.size();
    for (std::size_t i = 0; i < out.events.size(); ++i) out.events[i] = slot(first + i);
  }

  void restore(const Snapshot& snap) {
    MEMCA_CHECK(snap.events.size() <= snap.size);
    const std::size_t first = snap.size - snap.events.size();
    for (std::size_t i = 0; i < snap.events.size(); ++i) slot(first + i) = snap.events[i];
    if (snap.size == 0) {
      clear();
      return;
    }
    // Reopen the chunk holding the last event. At a chunk boundary that
    // leaves the cursor at its end, so the next record() opens the next
    // chunk and a rewind never has to.
    const std::size_t open = (snap.size - 1) >> kChunkShift;
    MEMCA_CHECK((open & chunk_mask_) < chunks_.size());
    base_ = open << kChunkShift;
    chunk_begin_ = chunks_[open & chunk_mask_].get();
    chunk_end_ = chunk_begin_ + kChunkEvents;
    cursor_ = chunk_begin_ + (snap.size - base_);
  }

 private:
  /// Opens the chunk for event number total_recorded() — taking a new one
  /// (pooled or allocated) when an unbounded store outgrows its chunks,
  /// rotating onto the oldest one when a bounded store is full.
  void next_chunk();

  /// Retained events when bounded; 0 when unbounded (the all-ones mask
  /// wraps to 0).
  std::size_t capacity() const { return (chunk_mask_ + 1) << kChunkShift; }
  /// The one index formula: event number -> physical slot.
  TraceEvent& slot(std::size_t pos) const {
    return chunks_[(pos >> kChunkShift) & chunk_mask_][pos & kChunkMask];
  }

  // 2048 events (80 KB) per chunk: growth never copies recorded events, and
  // the allocation stays under glibc's 128 KB mmap threshold so freed chunks
  // are recycled warm from the heap instead of being unmapped — a fresh
  // recorder per sweep cell would otherwise page-fault its whole store in.
  static constexpr std::size_t kChunkShift = 11;
  static constexpr std::size_t kChunkEvents = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkEvents - 1;

  // Hot fields first: record() touches only cursor_ and chunk_end_, which
  // must share the recorder's first cache line.
  TraceEvent* cursor_ = nullptr;
  TraceEvent* chunk_end_ = nullptr;
  TraceEvent* chunk_begin_ = nullptr;
  std::size_t base_ = 0;                      // event number of chunk_begin_[0]
  std::size_t chunk_mask_ = ~std::size_t{0};  // chunk count - 1; all ones = unbounded
  std::vector<std::unique_ptr<TraceEvent[]>> chunks_;
};

/// Hook-site helper: record iff a recorder is attached. With tracing
/// compiled out (MEMCA_TRACE_DISABLED) this is an empty inline function and
/// the whole hook folds away.
inline void emit(TraceRecorder* recorder, const TraceEvent& event) {
#ifndef MEMCA_TRACE_DISABLED
  if (recorder != nullptr) recorder->record(event);
#else
  (void)recorder;
  (void)event;
#endif
}

}  // namespace memca::trace
