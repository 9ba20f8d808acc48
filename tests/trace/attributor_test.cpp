#include "trace/attributor.h"

#include <gtest/gtest.h>

#include "support/trace_skip.h"
#include "trace/recorder.h"

namespace memca::trace {
namespace {

class StreamBuilder {
 public:
  explicit StreamBuilder(TraceRecorder& recorder) : recorder_(recorder) {}

  void client(EventKind kind, SimTime t, std::int64_t req, std::int32_t user, int attempt,
              SimTime aux) {
    recorder_.record(TraceEvent{t, req, aux, 0.0, user, -1, kind,
                                static_cast<std::uint8_t>(attempt)});
  }
  /// Consolidated tier traversal: enter in aux, service start in value,
  /// service end as the event time (mirrors TierServer::mark_span).
  void span(SimTime service_end, std::int64_t req, std::int32_t user, int tier_index,
            SimTime enter, SimTime service_start, int attempt = 0) {
    recorder_.record(TraceEvent{service_end, req, enter,
                                static_cast<double>(service_start), user,
                                static_cast<std::int16_t>(tier_index),
                                EventKind::kTierSpan,
                                static_cast<std::uint8_t>(attempt)});
  }
  void drop(SimTime t, std::int64_t req, std::int32_t user, int tier_index,
            int attempt = 0) {
    recorder_.record(TraceEvent{t, req, 0, 0.0, user, static_cast<std::int16_t>(tier_index),
                                EventKind::kDrop, static_cast<std::uint8_t>(attempt)});
  }
  void capacity(SimTime t, int tier_index, double multiplier) {
    recorder_.record(TraceEvent{t, 0, 0, multiplier, -1,
                                static_cast<std::int16_t>(tier_index),
                                EventKind::kCapacity, 0});
  }

 private:
  TraceRecorder& recorder_;
};

/// One attempt through two tiers with known wait/service/hold gaps. The
/// attempt's send instant is implicit: it is the tier-0 enter time.
void append_clean_walk(StreamBuilder& b, std::int64_t req, std::int32_t user,
                       SimTime base) {
  // Tier 0: enter 0, start 10, end 30 -> wait0 = 10, svc0 = 20.
  b.span(base + 30, req, user, 0, base + 0, base + 10);
  // Tier 1: enter 45, start 50, end 80 -> hold0 = 15, wait1 = 5, svc1 = 30.
  b.span(base + 80, req, user, 1, base + 45, base + 50);
  b.client(EventKind::kComplete, base + 80, req, user, 0, base + 0);
}

TEST(TailAttributor, ExactDecompositionOfOneAttempt) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  TraceRecorder recorder;
  StreamBuilder b(recorder);
  append_clean_walk(b, /*req=*/1, /*user=*/5, /*base=*/0);

  TailAttributor attributor(recorder, 2, AttributorConfig{usec(50)});
  ASSERT_EQ(attributor.requests().size(), 1u);
  const RequestBreakdown& r = attributor.requests()[0];
  EXPECT_EQ(r.final_request, 1);
  EXPECT_EQ(r.user, 5);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.total, 80);
  ASSERT_EQ(r.queue_wait.size(), 2u);
  EXPECT_EQ(r.queue_wait[0], 10);
  EXPECT_EQ(r.queue_wait[1], 5);
  EXPECT_EQ(r.service[0], 20);
  EXPECT_EQ(r.service[1], 30);
  EXPECT_EQ(r.rpc_hold[0], 15);
  EXPECT_EQ(r.rpc_hold[1], 0);
  EXPECT_EQ(r.rto_wait, 0);
  EXPECT_EQ(r.degraded_service, 0);
  EXPECT_EQ(r.slack, 0);  // wait + service + hold covers the whole span
  EXPECT_EQ(r.dominant(), Cause::kService);
}

TEST(TailAttributor, DegradedServiceIsDipOverlap) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  // Tier 1 runs at half speed over [40, 70); the tier-1 service span is
  // [50, 80), so 20 of its 30 us are degraded.
  TraceRecorder ordered;
  StreamBuilder ob(ordered);
  ob.span(30, 1, 5, 0, 0, 10);
  ob.capacity(40, 1, 0.5);
  ob.capacity(70, 1, 1.0);
  ob.span(80, 1, 5, 1, 45, 50);
  ob.client(EventKind::kComplete, 80, 1, 5, 0, 0);

  TailAttributor attributor(ordered, 2, AttributorConfig{usec(50)});
  ASSERT_EQ(attributor.requests().size(), 1u);
  const RequestBreakdown& r = attributor.requests()[0];
  EXPECT_EQ(r.degraded_service, 20);
  EXPECT_EQ(r.of(Cause::kDegradedService), 20);
  // Nominal service shrinks by the degraded part; the sum is unchanged.
  EXPECT_EQ(r.of(Cause::kService), 30);
  EXPECT_EQ(r.service_total(), 50);
}

TEST(TailAttributor, OpenDipAtStreamEndStillCounts) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  TraceRecorder recorder;
  StreamBuilder b(recorder);
  b.capacity(40, 1, 0.25);  // never restored
  append_clean_walk(b, 1, 5, 0);
  TailAttributor attributor(recorder, 2, AttributorConfig{usec(50)});
  ASSERT_EQ(attributor.requests().size(), 1u);
  // Dip is closed at the last event time (80): overlap with [50, 80) = 30.
  EXPECT_EQ(attributor.requests()[0].degraded_service, 30);
}

TEST(TailAttributor, DropRetransmitCompleteFoldsIntoOneLogicalRequest) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  const SimTime rto = sec(std::int64_t{1});
  TraceRecorder recorder;
  StreamBuilder b(recorder);
  // Attempt 0 is rejected at the front at t=0; TCP waits one RTO.
  b.drop(0, 10, 3, 0, 0);
  b.client(EventKind::kRetransmit, 0, 10, 3, 0, rto);
  // Attempt 1 (new request id) succeeds through the single tier.
  b.span(rto + 25, 11, 3, 0, rto, rto + 5, 1);
  b.client(EventKind::kComplete, rto + 25, 11, 3, 1, 0);

  TailAttributor attributor(recorder, 1);
  ASSERT_EQ(attributor.requests().size(), 1u);
  const RequestBreakdown& r = attributor.requests()[0];
  EXPECT_EQ(r.final_request, 11);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(r.total, rto + 25);
  EXPECT_EQ(r.rto_wait, rto);
  EXPECT_EQ(r.queue_wait[0], 5);
  EXPECT_EQ(r.service[0], 20);
  EXPECT_EQ(r.slack, 0);
  EXPECT_EQ(r.dominant(), Cause::kRtoWait);

  // Default threshold 1 s: this request is tail and retransmission-
  // dominated, which is what the summary reports.
  const TailSummary s = attributor.summary();
  EXPECT_EQ(s.completed, 1);
  EXPECT_EQ(s.tail_count, 1);
  EXPECT_EQ(s.tail_retrans_dominated, 1);
  EXPECT_DOUBLE_EQ(s.retrans_dominated_share(), 1.0);
  EXPECT_EQ(s.rto_wait_us, rto);
}

TEST(TailAttributor, AbandonedRequestsAreCountedNotAttributed) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  TraceRecorder recorder;
  StreamBuilder b(recorder);
  b.drop(0, 20, 7, 0, 0);
  b.client(EventKind::kAbandon, 0, 20, 7, 0, 0);
  TailAttributor attributor(recorder, 1);
  EXPECT_EQ(attributor.requests().size(), 0u);
  EXPECT_EQ(attributor.abandoned(), 1);
  EXPECT_EQ(attributor.summary().abandoned, 1);
}

TEST(TailAttributor, SummaryFiltersByThreshold) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  TraceRecorder recorder;
  StreamBuilder b(recorder);
  append_clean_walk(b, 1, 5, 0);       // 80 us total — below threshold
  append_clean_walk(b, 2, 6, 1000);    // 80 us total — below threshold
  TailAttributor attributor(recorder, 2, AttributorConfig{usec(100)});
  EXPECT_EQ(attributor.requests().size(), 2u);
  EXPECT_EQ(attributor.summary().tail_count, 0);

  TailAttributor low(recorder, 2, AttributorConfig{usec(50)});
  EXPECT_EQ(low.summary().tail_count, 2);
  // Per-cause rows cover all tail time; shares sum to 1.
  double share = 0.0;
  for (const auto& row : low.tail_rows()) share += row.share;
  EXPECT_NEAR(share, 1.0, 1e-12);
}

TEST(TailAttributor, UnlinkedTrafficIsIgnored) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  // Prober/open-loop traffic carries user = -1 on its events: it must not
  // produce a breakdown.
  TraceRecorder recorder;
  StreamBuilder b(recorder);
  b.span(2, 99, -1, 0, 0, 1);
  b.client(EventKind::kComplete, 2, 99, -1, 0, 0);
  TailAttributor attributor(recorder, 1);
  EXPECT_EQ(attributor.requests().size(), 0u);
}

}  // namespace
}  // namespace memca::trace
