#include "metrics/registry.h"

#include <gtest/gtest.h>

#include <sstream>

namespace memca::metrics {
namespace {

TEST(Registry, CounterIncrementsThroughHandle) {
  Registry registry;
  Counter counter = registry.counter("requests");
  EXPECT_EQ(counter.value(), 0);
  counter.set_to(5);
  EXPECT_EQ(counter.value(), 5);
  EXPECT_EQ(registry.counter_value("requests"), 5);
  counter.set_to(11);
  EXPECT_EQ(registry.counter_value("requests"), 11);
}

TEST(Registry, HandlesToSameInstrumentAlias) {
  Registry registry;
  Counter a = registry.counter("hits", {{"tier", "mysql"}});
  Counter b = registry.counter("hits", {{"tier", "mysql"}});
  a.set_to(2);
  EXPECT_EQ(b.value(), 2);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, LabelsAreCanonicalizedBySortOrder) {
  Registry registry;
  Counter a = registry.counter("hits", {{"b", "2"}, {"a", "1"}});
  Counter b = registry.counter("hits", {{"a", "1"}, {"b", "2"}});
  a.set_to(1);
  EXPECT_EQ(b.value(), 1);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, DifferentLabelsAreDifferentInstruments) {
  Registry registry;
  Counter a = registry.counter("hits", {{"tier", "mysql"}});
  Counter b = registry.counter("hits", {{"tier", "tomcat"}});
  a.set_to(3);
  EXPECT_EQ(b.value(), 0);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.family("hits").size(), 2u);
}

TEST(Registry, FamilyPreservesRegistrationOrderAndLabels) {
  Registry registry;
  registry.counter("hits", {{"tier", "apache"}});
  registry.counter("other");
  registry.counter("hits", {{"tier", "mysql"}});
  const auto family = registry.family("hits");
  ASSERT_EQ(family.size(), 2u);
  EXPECT_EQ(registry.label_value(family[0], "tier"), "apache");
  EXPECT_EQ(registry.label_value(family[1], "tier"), "mysql");
  EXPECT_EQ(registry.label_value(family[0], "absent"), "");
}

TEST(Registry, GaugeAndHistogram) {
  Registry registry;
  Gauge gauge = registry.gauge("depth");
  gauge.set(2.5);
  EXPECT_EQ(registry.gauge_value("depth"), 2.5);

  LatencyHistogram recorded;
  recorded.record(msec(10));
  recorded.record(msec(20));
  registry.histogram("latency").set_to(recorded);
  const LatencyHistogram* stored = registry.find_histogram("latency");
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->count(), 2);
  EXPECT_EQ(stored->max(), recorded.max());
}

TEST(Registry, ScrapeAppendsSeriesForEveryValueInstrument) {
  Registry registry;
  Counter counter = registry.counter("c");
  Gauge gauge = registry.gauge("g");
  int calls = 0;
  registry.probe("p", {}, [&calls] { return static_cast<double>(++calls); });
  LatencyHistogram recorded;
  recorded.record(msec(1));
  registry.histogram("h").set_to(recorded);

  counter.set_to(7);
  gauge.set(0.5);
  registry.scrape(msec(50));
  counter.set_to(8);
  gauge.set(0.75);
  registry.scrape(msec(100));

  EXPECT_EQ(registry.scrapes(), 2);
  const TimeSeries* g = registry.series("g");
  ASSERT_NE(g, nullptr);
  ASSERT_EQ(g->size(), 2u);
  EXPECT_EQ(g->samples()[0].value, 0.5);
  EXPECT_EQ(g->samples()[1].value, 0.75);
  EXPECT_EQ(g->samples()[1].time, msec(100));
  // The probe was evaluated once per scrape.
  EXPECT_EQ(calls, 2);
  ASSERT_EQ(registry.series("p")->size(), 2u);
  EXPECT_EQ(registry.series("p")->samples()[1].value, 2.0);
  // Counters and histograms carry no series: their value is the total.
  EXPECT_TRUE(registry.series("c")->empty());
  EXPECT_EQ(registry.counter_value("c"), 8);
  EXPECT_TRUE(registry.series("h")->empty());
}

TEST(Registry, FindMissingReturnsDefaults) {
  Registry registry;
  EXPECT_EQ(registry.find("absent"), Registry::npos);
  EXPECT_EQ(registry.counter_value("absent"), 0);
  EXPECT_EQ(registry.gauge_value("absent"), 0.0);
  EXPECT_EQ(registry.series("absent"), nullptr);
  EXPECT_EQ(registry.find_histogram("absent"), nullptr);
}

TEST(Registry, MergeSumsCountersGaugesHistogramsAndSeries) {
  Registry a;
  Registry b;
  a.counter("c").set_to(3);
  b.counter("c").set_to(4);
  a.gauge("g").set(1.0);
  b.gauge("g").set(2.0);
  LatencyHistogram ha;
  ha.record(msec(10));
  LatencyHistogram hb;
  hb.record(msec(30));
  a.histogram("h").set_to(ha);
  b.histogram("h").set_to(hb);
  a.scrape(msec(50));
  b.scrape(msec(50));

  a.merge(b);
  EXPECT_EQ(a.counter_value("c"), 7);
  EXPECT_EQ(a.gauge_value("g"), 3.0);
  EXPECT_EQ(a.find_histogram("h")->count(), 2);
  ASSERT_EQ(a.series("g")->size(), 1u);
  EXPECT_EQ(a.series("g")->samples()[0].value, 3.0);
}

TEST(Registry, MergeIntoEmptyAdoptsOtherOrder) {
  Registry cell;
  cell.counter("first").set_to(1);
  cell.counter("second").set_to(2);
  Registry merged;
  merged.merge(cell);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.name(0), "first");
  EXPECT_EQ(merged.name(1), "second");
  EXPECT_EQ(merged.counter_value("second"), 2);
}

TEST(Registry, MergeOrderInvariantForSummedValues) {
  // a+b and b+a must agree value-for-value when both cells registered the
  // same instruments (the sweep case).
  auto build = [](std::int64_t n, double g) {
    auto registry = std::make_unique<Registry>();
    registry->counter("c").set_to(n);
    registry->gauge("g").set(g);
    registry->scrape(msec(50));
    return registry;
  };
  auto serialize = [](const Registry& r) {
    std::ostringstream out;
    r.serialize(out);
    return out.str();
  };
  Registry ab;
  ab.merge(*build(1, 0.25));
  ab.merge(*build(2, 0.5));
  Registry ba;
  ba.merge(*build(2, 0.5));
  ba.merge(*build(1, 0.25));
  // Not bit-identical in general (double addition is not commutative-exact),
  // but for these values it is, and the structural bytes always match.
  EXPECT_EQ(serialize(ab), serialize(ba));
}

TEST(Registry, SerializeIsDeterministic) {
  auto build = [] {
    auto registry = std::make_unique<Registry>();
    registry->counter("c", {{"tier", "mysql"}}).set_to(5);
    registry->gauge("g").set(0.75);
    LatencyHistogram hist;
    hist.record(msec(20));
    registry->histogram("h").set_to(hist);
    registry->scrape(msec(50));
    registry->scrape(msec(100));
    return registry;
  };
  std::ostringstream first;
  std::ostringstream second;
  build()->serialize(first);
  build()->serialize(second);
  EXPECT_FALSE(first.str().empty());
  EXPECT_EQ(first.str(), second.str());
}

TEST(Registry, SerializeDistinguishesDifferentValues) {
  Registry a;
  a.counter("c").set_to(1);
  Registry b;
  b.counter("c").set_to(2);
  std::ostringstream sa;
  std::ostringstream sb;
  a.serialize(sa);
  b.serialize(sb);
  EXPECT_NE(sa.str(), sb.str());
}

}  // namespace
}  // namespace memca::metrics
