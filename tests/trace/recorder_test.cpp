#include "trace/recorder.h"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "support/counting_alloc.h"
#include "support/trace_skip.h"

namespace memca::trace {
namespace {

constexpr std::size_t kChunk = 2048;  // events per chunk

TraceEvent event_at(SimTime t) {
  TraceEvent ev;
  ev.time = t;
  ev.request = t * 2;
  ev.kind = EventKind::kTierSpan;
  return ev;
}

void record_range(TraceRecorder& recorder, std::size_t from, std::size_t to) {
  for (std::size_t i = from; i < to; ++i) recorder.record(event_at(static_cast<SimTime>(i)));
}

std::vector<TraceEvent> retained(const TraceRecorder& recorder) {
  std::vector<TraceEvent> out;
  recorder.for_each([&](const TraceEvent& ev) { out.push_back(ev); });
  return out;
}

bool same_bytes(const std::vector<TraceEvent>& a, const std::vector<TraceEvent>& b) {
  // memcmp must not see the null data() of an empty vector, even for 0 bytes.
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(TraceEvent)) == 0);
}

/// Records `cut` events into an empty recorder, captures, and checks two
/// rollbacks to that capture: one straight away (nothing recorded since, so
/// a chunk the capture did not need does not exist yet) and one after
/// `more` further events. Neither restore may allocate, and replaying the
/// same `more` events must reproduce the retained window byte for byte.
/// Returns the capture.
TraceRecorder::Snapshot expect_rollback_replays_identically(TraceRecorder& recorder,
                                                            std::size_t cut, std::size_t more) {
  SCOPED_TRACE(::testing::Message() << "capture after " << cut << " events");
  record_range(recorder, 0, cut);
  const std::vector<TraceEvent> at_cut = retained(recorder);
  TraceRecorder::Snapshot snap;
  recorder.capture(snap);
  {
    tests::ScopedAllocationCounter counter;
    recorder.restore(snap);
    EXPECT_EQ(counter.count(), 0);
  }
  EXPECT_EQ(recorder.total_recorded(), cut);
  EXPECT_TRUE(same_bytes(retained(recorder), at_cut));

  record_range(recorder, cut, cut + more);
  const std::vector<TraceEvent> control = retained(recorder);
  {
    tests::ScopedAllocationCounter counter;
    recorder.restore(snap);
    EXPECT_EQ(counter.count(), 0);
  }
  EXPECT_EQ(recorder.total_recorded(), cut);
  EXPECT_TRUE(same_bytes(retained(recorder), at_cut));
  record_range(recorder, cut, cut + more);
  EXPECT_TRUE(same_bytes(retained(recorder), control));
  return snap;
}

TEST(TraceRecorder, RecordsAndReadsBackAcrossChunks) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  TraceRecorder recorder;
  EXPECT_TRUE(recorder.empty());
  // Well past one chunk, so growth paths are exercised.
  constexpr std::size_t kCount = 10'000;
  record_range(recorder, 0, kCount);
  ASSERT_EQ(recorder.size(), kCount);
  EXPECT_EQ(recorder.total_recorded(), kCount);
  EXPECT_FALSE(recorder.wrapped());
  EXPECT_EQ(recorder.bytes_retained(), 5 * kChunk * sizeof(TraceEvent));
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(recorder[i].time, static_cast<SimTime>(i));
    EXPECT_EQ(recorder[i].request, static_cast<std::int64_t>(i) * 2);
  }
  // for_each visits in append order.
  SimTime expect = 0;
  recorder.for_each([&](const TraceEvent& ev) { EXPECT_EQ(ev.time, expect++); });
  EXPECT_EQ(expect, static_cast<SimTime>(kCount));
}

TEST(TraceRecorder, ClearKeepsCapacityAndResetsState) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  TraceRecorder recorder;
  record_range(recorder, 0, 3 * kChunk + 10);
  const std::size_t bytes = recorder.bytes_retained();
  EXPECT_EQ(bytes, 4 * kChunk * sizeof(TraceEvent));
  recorder.clear();
  EXPECT_TRUE(recorder.empty());
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_EQ(recorder.bytes_retained(), bytes);
  recorder.record(event_at(7));
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder[0].time, 7);
  // Refilling to the old size reuses the chunks already held.
  tests::ScopedAllocationCounter counter;
  record_range(recorder, 1, 3 * kChunk + 10);
  EXPECT_EQ(counter.count(), 0);
  EXPECT_EQ(recorder.bytes_retained(), bytes);
}

TEST(TraceRecorder, SnapshotRestoresUnboundedStoreWithoutAllocating) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  // Captures at 0, mid-chunk, exactly at a chunk boundary (the rewind must
  // leave the next chunk for record() to open, not open it itself) and
  // past two chunks.
  for (std::size_t cut : {std::size_t{0}, kChunk / 2, kChunk, 2 * kChunk + 300}) {
    TraceRecorder recorder;
    expect_rollback_replays_identically(recorder, cut, kChunk + 700);
    EXPECT_FALSE(recorder.wrapped());
  }
}

TEST(TraceRecorderRing, WrapsKeepingNewestWindow) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  constexpr std::size_t kCapacity = 4 * kChunk;
  TraceRecorder recorder({kCapacity});
  EXPECT_FALSE(recorder.wrapped());
  EXPECT_EQ(recorder.bytes_retained(), kCapacity * sizeof(TraceEvent));
  // More than three full rotations of the four chunks, ending mid-chunk.
  constexpr std::size_t kTotal = 3 * kCapacity + kChunk + 123;
  {
    tests::ScopedAllocationCounter counter;
    record_range(recorder, 0, kTotal);
    EXPECT_EQ(counter.count(), 0) << "a bounded store never allocates on record";
  }
  EXPECT_TRUE(recorder.wrapped());
  ASSERT_EQ(recorder.size(), kCapacity);
  EXPECT_EQ(recorder.total_recorded(), kTotal);
  // The retained window is the newest kCapacity events in causal order.
  for (std::size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(recorder[i].time, static_cast<SimTime>(kTotal - kCapacity + i));
  }
  SimTime expect = static_cast<SimTime>(kTotal - kCapacity);
  recorder.for_each([&](const TraceEvent& ev) { EXPECT_EQ(ev.time, expect++); });
  // The budget never grows past the chunks taken at construction.
  EXPECT_EQ(recorder.bytes_retained(), kCapacity * sizeof(TraceEvent));
}

TEST(TraceRecorderRing, CapacityRoundsUpToPowerOfTwo) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  // 100 events round up to one chunk; three chunks round up to four.
  const std::pair<std::size_t, std::size_t> cases[] = {{100, kChunk}, {3 * kChunk, 4 * kChunk}};
  for (const auto& [asked, kept] : cases) {
    TraceRecorder recorder({asked});
    EXPECT_EQ(recorder.bytes_retained(), kept * sizeof(TraceEvent));
    record_range(recorder, 0, 2 * kept + 5);
    EXPECT_EQ(recorder.size(), kept);
    EXPECT_EQ(recorder[0].time, static_cast<SimTime>(kept + 5));
  }
}

TEST(TraceRecorderRing, ClearResetsToEmpty) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  TraceRecorder recorder({kChunk});
  record_range(recorder, 0, 3 * kChunk);
  recorder.clear();
  EXPECT_TRUE(recorder.empty());
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_FALSE(recorder.wrapped());
  EXPECT_EQ(recorder.bytes_retained(), kChunk * sizeof(TraceEvent));
  recorder.record(event_at(7));
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder[0].time, 7);
}

TEST(TraceRecorderRing, SnapshotRestoresWrappedStateExactly) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  // A four-chunk store, captured after it has wrapped: mid-chunk and exactly
  // at a chunk boundary. The replay wraps again over the captured window,
  // so restore must put every event back in the physical slot it came from.
  constexpr std::size_t kCapacity = 4 * kChunk;
  for (std::size_t cut : {2 * kCapacity + kChunk / 2, 2 * kCapacity + kChunk}) {
    TraceRecorder recorder({kCapacity});
    expect_rollback_replays_identically(recorder, cut, kCapacity + 700);
    EXPECT_EQ(recorder.size(), kCapacity);
    EXPECT_TRUE(recorder.wrapped());
  }
}

TEST(TraceRecorderRing, SnapshotBeforeWrapRestores) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  constexpr std::size_t kCapacity = 4 * kChunk;
  // Captured before the first wrap; the replay wraps twice over it.
  TraceRecorder recorder({kCapacity});
  const TraceRecorder::Snapshot snap =
      expect_rollback_replays_identically(recorder, kChunk + 10, 2 * kCapacity);
  EXPECT_TRUE(recorder.wrapped());
  recorder.restore(snap);
  EXPECT_EQ(recorder.total_recorded(), kChunk + 10);
  ASSERT_EQ(recorder.size(), kChunk + 10);
  EXPECT_FALSE(recorder.wrapped());
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    EXPECT_EQ(recorder[i].time, static_cast<SimTime>(i));
  }
}

TEST(TraceRecorderPool, NextBoundedStoreReusesParkedChunks) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  constexpr std::size_t kCapacity = 4 * kChunk;
  { TraceRecorder warm({kCapacity}); }  // parks its four chunks on this thread
  tests::ScopedAllocationCounter counter;
  TraceRecorder recorder({kCapacity});
  const std::int64_t built = counter.count();
  record_range(recorder, 0, 3 * kCapacity);
  const std::int64_t recorded = counter.count();
  // The chunk table is the one allocation; every chunk comes from the pool.
  EXPECT_EQ(built, 1);
  EXPECT_EQ(recorded, 1);
  EXPECT_EQ(recorder.bytes_retained(), kCapacity * sizeof(TraceEvent));
}

TEST(TraceRecorder, EmitOnNullRecorderIsSafe) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  emit(nullptr, event_at(1));  // must be a no-op, not a crash
  TraceRecorder recorder;
  emit(&recorder, event_at(2));
  EXPECT_EQ(recorder.size(), 1u);
}

TEST(TraceEventTest, KindNamesAreDistinct) {
  EXPECT_STREQ(to_string(EventKind::kRetransmit), "retransmit");
  EXPECT_STREQ(to_string(EventKind::kTierSpan), "tier-span");
  EXPECT_STREQ(to_string(EventKind::kCapacity), "capacity");
  EXPECT_STRNE(to_string(EventKind::kBurstOn), to_string(EventKind::kBurstOff));
}

}  // namespace
}  // namespace memca::trace
