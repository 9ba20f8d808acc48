#include "trace/exporters.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "support/trace_skip.h"
#include "trace/attributor.h"
#include "trace/recorder.h"

namespace memca::trace {
namespace {

std::size_t count_occurrences(const std::string& haystack, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// One request through two tiers plus capacity/burst marks and a retransmit.
void fill_sample_stream(TraceRecorder& r) {
  auto ev = [](SimTime t, std::int64_t req, SimTime aux, double value, std::int32_t user,
               int tier, EventKind kind, int attempt) {
    return TraceEvent{t, req, aux, value, user, static_cast<std::int16_t>(tier), kind,
                      static_cast<std::uint8_t>(attempt)};
  };
  r.record(ev(0, 0, 0, 1.0, -1, -1, EventKind::kBurstOn, 0));
  r.record(ev(0, 0, 0, 0.5, -1, 1, EventKind::kCapacity, 0));
  // Tier 0: enter 5, service 10..30; tier 1: enter 40, service 45..60
  // (so tier 0 holds its thread 30..60 — the "downstream" slice).
  r.record(ev(30, 1, 5, 10.0, 3, 0, EventKind::kTierSpan, 0));
  r.record(ev(60, 1, 40, 45.0, 3, 1, EventKind::kTierSpan, 0));
  r.record(ev(60, 1, 5, 0.0, 3, -1, EventKind::kComplete, 0));
  r.record(ev(61, 2, 0, 0.0, 4, 0, EventKind::kDrop, 0));
  r.record(ev(61, 2, sec(std::int64_t{1}), 0.0, 4, -1, EventKind::kRetransmit, 0));
  r.record(ev(70, 0, 0, 1.0, -1, 1, EventKind::kCapacity, 0));
  r.record(ev(70, 0, 0, 0.0, -1, -1, EventKind::kBurstOff, 0));
}

TEST(ChromeTraceExport, EmitsSlicesCountersAndMetadata) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  TraceRecorder recorder;
  fill_sample_stream(recorder);
  std::ostringstream out;
  write_chrome_trace(out, recorder, ChromeTraceOptions{{"apache", "mysql"}, 0, true});
  const std::string json = out.str();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"apache\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mysql\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"clients\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"attack\""), std::string::npos);
  // wait (tier0 5->10, tier1 40->45), service x2, downstream (tier 0's
  // thread pinned 30->60 while the request is in tier 1), rto-wait on the
  // client track.
  EXPECT_EQ(count_occurrences(json, "\"name\":\"wait\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"service\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"downstream\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"rto-wait\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"capacity\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"burst\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"drop\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"complete\""), 1u);
  // Balanced JSON object: equally many opening and closing braces.
  EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
}

TEST(ChromeTraceExport, ClientTrackCanBeDisabled) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  TraceRecorder recorder;
  fill_sample_stream(recorder);
  std::ostringstream out;
  write_chrome_trace(out, recorder, ChromeTraceOptions{{"apache", "mysql"}, 0, false});
  const std::string json = out.str();
  EXPECT_EQ(json.find("\"name\":\"clients\""), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"rto-wait\""), 0u);
  // Tier content is unaffected.
  EXPECT_EQ(count_occurrences(json, "\"name\":\"service\""), 2u);
}

TEST(ChromeTraceExport, TandemModeSkipsDownstreamSlices) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  // rpc_holding=false (TandemQueueSystem): residence ends with local
  // service, so no thread-pinned "downstream" slices are drawn.
  TraceRecorder recorder;
  fill_sample_stream(recorder);
  std::ostringstream out;
  write_chrome_trace(out, recorder, ChromeTraceOptions{{"s0", "s1"}, 0, true, false});
  const std::string json = out.str();
  EXPECT_EQ(count_occurrences(json, "\"name\":\"downstream\""), 0u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"wait\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"service\""), 2u);
}

TEST(AttributionCsvExport, OneRowPerTailRequest) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  TraceRecorder recorder;
  fill_sample_stream(recorder);
  // Threshold 10 us: the one completed request (total 55 us) is tail.
  TailAttributor attributor(recorder, 2, AttributorConfig{usec(10)});
  ASSERT_EQ(attributor.requests().size(), 1u);
  std::ostringstream out;
  write_attribution_csv(out, attributor);
  const std::string csv = out.str();
  // Header + one data row.
  EXPECT_EQ(count_occurrences(csv, "\n"), 2u);
  EXPECT_NE(csv.find("request,user,attempts"), std::string::npos);
  EXPECT_NE(csv.find("wait_t1_us"), std::string::npos);
  // The data row carries the dominant-cause label.
  EXPECT_NE(csv.find(",service"), std::string::npos);

  // Raise the threshold above the request's total: no data rows.
  TailAttributor strict(recorder, 2, AttributorConfig{usec(1000)});
  std::ostringstream empty;
  write_attribution_csv(empty, strict);
  EXPECT_EQ(count_occurrences(empty.str(), "\n"), 1u);
}

}  // namespace
}  // namespace memca::trace
