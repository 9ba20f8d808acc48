// Satellite coverage for the drop -> retransmit path: the drop callback
// fires exactly once per rejected attempt, the next attempt carries an
// incremented attempt number, and the RTO doubles per retry from the 1 s
// RFC 6298 floor. Verified against both the public counters and the
// recorded span-event stream.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "queueing/ntier.h"
#include "support/trace_skip.h"
#include "trace/recorder.h"
#include "workload/clients.h"

namespace memca::workload {
namespace {

struct Overloaded {
  Simulator sim;
  queueing::NTierSystem system;
  RequestRouter router;
  trace::TraceRecorder recorder;

  // One tier, one thread, one worker, ~3 s services vs. 10 ms think: every
  // user beyond the one in service is rejected at submit.
  Overloaded() : system(sim, {{"only", 1, 1}}), router(system) {
    system.set_trace(&recorder);
  }
};

TEST(Retransmission, DropCallbackFiresOncePerRejectedAttempt) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  Overloaded f;
  ClientConfig config;
  config.num_users = 4;
  ClosedLoopClients clients(f.sim, f.router, uniform_profile({3e6}, msec(10)), config,
                            Rng(7));
  clients.set_trace(&f.recorder);
  clients.start();
  f.sim.run_until(sec(std::int64_t{30}));

  ASSERT_GT(f.system.dropped(), 0);
  // The client observed every rejection exactly once.
  EXPECT_EQ(clients.dropped_attempts(), f.system.dropped());

  std::int64_t drop_events = 0, retransmit_events = 0, abandon_events = 0;
  f.recorder.for_each([&](const trace::TraceEvent& ev) {
    if (ev.kind == trace::EventKind::kDrop) ++drop_events;
    if (ev.kind == trace::EventKind::kRetransmit) ++retransmit_events;
    if (ev.kind == trace::EventKind::kAbandon) ++abandon_events;
  });
  EXPECT_EQ(drop_events, f.system.dropped());
  // Every rejection either scheduled a retransmission or gave up.
  EXPECT_EQ(retransmit_events + abandon_events, drop_events);
  EXPECT_EQ(abandon_events, clients.failed());
}

TEST(Retransmission, RtoDoublesAndNextAttemptIncrements) {
  MEMCA_SKIP_IF_TRACE_DISABLED();
  Overloaded f;
  ClientConfig config;
  config.num_users = 4;
  ClosedLoopClients clients(f.sim, f.router, uniform_profile({3e6}, msec(10)), config,
                            Rng(11));
  clients.set_trace(&f.recorder);
  clients.start();
  f.sim.run_until(sec(std::int64_t{60}));

  // Pair each retransmission with the attempt it schedules. There is no
  // dedicated client-send event; an attempt's send instant is implicit in
  // the stream — a front-door rejection leaves a kDrop at the submit time,
  // an admitted attempt leaves a kTierSpan whose enter time (aux) is the
  // submit time.
  std::map<std::int32_t, std::vector<std::pair<SimTime, int>>> sends;
  std::vector<trace::TraceEvent> retransmits;
  f.recorder.for_each([&](const trace::TraceEvent& ev) {
    if (ev.kind == trace::EventKind::kDrop) {
      sends[ev.user].push_back({ev.time, ev.attempt});
    } else if (ev.kind == trace::EventKind::kTierSpan && ev.tier == 0) {
      sends[ev.user].push_back({ev.aux, ev.attempt});
    } else if (ev.kind == trace::EventKind::kRetransmit) {
      retransmits.push_back(ev);
    }
  });
  ASSERT_FALSE(retransmits.empty());
  bool saw_backoff = false;
  for (const trace::TraceEvent& rt : retransmits) {
    // RFC 6298: RTO = min_rto * 2^attempt for the attempt that was dropped.
    EXPECT_EQ(rt.aux, config.min_rto * (SimTime{1} << rt.attempt));
    if (rt.attempt > 0) saw_backoff = true;
    // Retransmissions scheduled past the simulated horizon never fire.
    if (rt.time + rt.aux > sec(std::int64_t{60})) continue;
    // The next transmission of this user happens exactly one RTO later and
    // carries attempt + 1.
    const auto& user_sends = sends[rt.user];
    bool paired = false;
    for (const auto& [send_time, attempt] : user_sends) {
      if (send_time == rt.time + rt.aux && attempt == rt.attempt + 1) {
        paired = true;
        break;
      }
    }
    EXPECT_TRUE(paired) << "no follow-up attempt for user " << rt.user << " at t="
                        << rt.time + rt.aux;
  }
  // The overload is persistent enough that at least one request needed a
  // second retransmission (attempt >= 1 -> doubled RTO actually observed).
  EXPECT_TRUE(saw_backoff);
}

TEST(Retransmission, TracedRunMatchesUntracedCounters) {
  // The recorder must be an observer only: identical seeds with and without
  // tracing produce identical client-visible outcomes.
  auto run = [](bool traced) {
    Overloaded f;
    if (!traced) f.system.set_trace(nullptr);
    ClientConfig config;
    config.num_users = 4;
    ClosedLoopClients clients(f.sim, f.router, uniform_profile({3e6}, msec(10)), config,
                              Rng(13));
    if (traced) clients.set_trace(&f.recorder);
    clients.start();
    f.sim.run_until(sec(std::int64_t{30}));
    return std::tuple{clients.completed(), clients.dropped_attempts(), clients.failed(),
                      f.system.submitted()};
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace memca::workload
