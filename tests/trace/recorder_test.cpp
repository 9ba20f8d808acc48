#include "trace/recorder.h"

#include <gtest/gtest.h>

#include "support/trace_skip.h"

namespace memca::trace {
namespace {

TraceEvent event_at(SimTime t) {
  TraceEvent ev;
  ev.time = t;
  ev.request = t * 2;
  ev.kind = EventKind::kTierSpan;
  return ev;
}

TEST(TraceRecorder, RecordsAndReadsBackAcrossChunks) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  TraceRecorder recorder;
  EXPECT_TRUE(recorder.empty());
  // Well past one 4096-event chunk, so growth paths are exercised.
  constexpr std::size_t kCount = 10'000;
  for (std::size_t i = 0; i < kCount; ++i) {
    recorder.record(event_at(static_cast<SimTime>(i)));
  }
  ASSERT_EQ(recorder.size(), kCount);
  EXPECT_FALSE(recorder.truncated());
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(recorder[i].time, static_cast<SimTime>(i));
    EXPECT_EQ(recorder[i].request, static_cast<std::int64_t>(i) * 2);
  }
  // for_each visits in append order.
  SimTime expect = 0;
  recorder.for_each([&](const TraceEvent& ev) { EXPECT_EQ(ev.time, expect++); });
  EXPECT_EQ(expect, static_cast<SimTime>(kCount));
}

TEST(TraceRecorder, MaxEventsTruncates) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  TraceRecorder recorder(TraceRecorder::Config{100});
  for (std::size_t i = 0; i < 200; ++i) {
    recorder.record(event_at(static_cast<SimTime>(i)));
  }
  EXPECT_EQ(recorder.size(), 100u);
  EXPECT_TRUE(recorder.truncated());
  EXPECT_EQ(recorder[99].time, 99);
}

TEST(TraceRecorder, ClearKeepsCapacityAndResetsState) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  TraceRecorder recorder(TraceRecorder::Config{50});
  for (std::size_t i = 0; i < 80; ++i) {
    recorder.record(event_at(static_cast<SimTime>(i)));
  }
  EXPECT_TRUE(recorder.truncated());
  recorder.clear();
  EXPECT_TRUE(recorder.empty());
  EXPECT_FALSE(recorder.truncated());
  recorder.record(event_at(7));
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder[0].time, 7);
}

TraceRecorder::Config ring_config(std::size_t capacity) {
  TraceRecorder::Config config;
  config.ring_capacity = capacity;
  return config;
}

TEST(TraceRecorderRing, WrapsKeepingNewestWindow) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  TraceRecorder recorder(ring_config(64));
  EXPECT_TRUE(recorder.ring_mode());
  EXPECT_FALSE(recorder.wrapped());
  EXPECT_EQ(recorder.bytes_retained(), 64 * sizeof(TraceEvent));
  for (std::size_t i = 0; i < 200; ++i) {
    recorder.record(event_at(static_cast<SimTime>(i)));
  }
  EXPECT_TRUE(recorder.wrapped());
  EXPECT_FALSE(recorder.truncated());  // eviction, not truncation
  ASSERT_EQ(recorder.size(), 64u);
  EXPECT_EQ(recorder.total_recorded(), 200u);
  // The retained window is the newest 64 events in causal order.
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(recorder[i].time, static_cast<SimTime>(136 + i));
  }
  SimTime expect = 136;
  recorder.for_each([&](const TraceEvent& ev) { EXPECT_EQ(ev.time, expect++); });
  // The budget never grows past the single eager allocation.
  EXPECT_EQ(recorder.bytes_retained(), 64 * sizeof(TraceEvent));
}

TEST(TraceRecorderRing, CapacityRoundsUpToPowerOfTwo) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  TraceRecorder recorder(ring_config(100));
  for (std::size_t i = 0; i < 500; ++i) {
    recorder.record(event_at(static_cast<SimTime>(i)));
  }
  EXPECT_EQ(recorder.size(), 128u);
  EXPECT_EQ(recorder[0].time, 500 - 128);
}

TEST(TraceRecorderRing, ClearResetsToEmpty) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  TraceRecorder recorder(ring_config(32));
  for (std::size_t i = 0; i < 100; ++i) {
    recorder.record(event_at(static_cast<SimTime>(i)));
  }
  recorder.clear();
  EXPECT_TRUE(recorder.empty());
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_FALSE(recorder.wrapped());
  recorder.record(event_at(7));
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder[0].time, 7);
}

TEST(TraceRecorderRing, SnapshotRestoresWrappedStateExactly) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  TraceRecorder recorder(ring_config(64));
  for (std::size_t i = 0; i < 150; ++i) {
    recorder.record(event_at(static_cast<SimTime>(i)));
  }
  TraceRecorder::Snapshot snap;
  recorder.capture(snap);

  // Control: the retained window after 70 more events, no rollback involved.
  for (std::size_t i = 150; i < 220; ++i) {
    recorder.record(event_at(static_cast<SimTime>(i)));
  }
  std::vector<SimTime> control;
  recorder.for_each([&](const TraceEvent& ev) { control.push_back(ev.time); });

  // Rollback to 150 recorded, then replay the same 70: the ring must land
  // in the same physical layout, so the retained window matches the control
  // byte for byte.
  recorder.restore(snap);
  EXPECT_EQ(recorder.total_recorded(), 150u);
  ASSERT_EQ(recorder.size(), 64u);
  EXPECT_EQ(recorder[0].time, 150 - 64);
  for (std::size_t i = 150; i < 220; ++i) {
    recorder.record(event_at(static_cast<SimTime>(i)));
  }
  std::vector<SimTime> replayed;
  recorder.for_each([&](const TraceEvent& ev) { replayed.push_back(ev.time); });
  EXPECT_EQ(replayed, control);
}

TEST(TraceRecorderRing, SnapshotBeforeWrapRestores) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  TraceRecorder recorder(ring_config(64));
  for (std::size_t i = 0; i < 10; ++i) {
    recorder.record(event_at(static_cast<SimTime>(i)));
  }
  TraceRecorder::Snapshot snap;
  recorder.capture(snap);
  for (std::size_t i = 10; i < 300; ++i) {
    recorder.record(event_at(static_cast<SimTime>(i)));
  }
  recorder.restore(snap);
  EXPECT_EQ(recorder.total_recorded(), 10u);
  ASSERT_EQ(recorder.size(), 10u);
  EXPECT_FALSE(recorder.wrapped());
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(recorder[i].time, static_cast<SimTime>(i));
  }
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
