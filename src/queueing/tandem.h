// Classic tandem queue model (the paper's comparison baseline, Fig. 6a/7a).
//
// In a tandem queue, stations are decoupled: a request waits only in front
// of the station currently serving it, and upstream stations are oblivious
// to downstream congestion. Under a back-end millibottleneck, all queueing
// accumulates in the last station (given an infinite buffer) and every
// tier's observed residence time is essentially the back-end queueing time —
// no cross-tier amplification. Contrasting this with NTierSystem is how the
// paper isolates the RPC thread-holding effect.
//
// Like the n-tier chain, the tandem hot path moves requests as pool-slot
// indices: waiting rooms hold packed u32 slots and per-event stamps land in
// the RequestPool's SoA arena lanes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/ring_queue.h"
#include "queueing/system.h"
#include "queueing/workstation.h"
#include "trace/recorder.h"

namespace memca::queueing {

struct StationConfig {
  std::string name;
  int workers = 2;
  /// Waiting-room capacity (excludes in-service); kUnbounded = infinite.
  int queue_capacity = -1;

  static constexpr int kUnbounded = -1;
};

class TandemQueueSystem : public RequestSystem {
 public:
  TandemQueueSystem(Simulator& sim, std::vector<StationConfig> stations);

  /// Submits a pool-owned request (demand_us must have one entry per
  /// station). Returns false if the front station rejected it.
  bool submit(Request* req) override;

  std::size_t num_stations() const { return stations_.size(); }
  std::size_t depth() const override { return stations_.size(); }
  /// Scales a station's service speed (attack coupling).
  void set_speed_multiplier(std::size_t station, double multiplier);

  int queue_length(std::size_t station) const;
  int in_service(std::size_t station) const;
  /// Waiting + in service at the station.
  int resident(std::size_t station) const;
  const LatencyHistogram& residence_time(std::size_t station) const;
  const std::string& station_name(std::size_t station) const;

 private:
  struct Station {
    StationConfig config;
    std::unique_ptr<WorkStation> workers;
    RingQueue<std::uint32_t> queue;
    LatencyHistogram residence_time;
  };

  void offer(std::size_t index, std::uint32_t slot);
  void pump(std::size_t index);
  void on_service_done(std::size_t index, std::uint32_t slot);
  void finish(std::uint32_t slot);
  /// Drops at station `index` (0 = front reject, i+1 = interior overflow).
  void drop(std::size_t index, Request* req);

  /// Appends this station's consolidated kTierSpan event (queue enter +
  /// service start + service end in one record) iff a recorder is attached.
  /// Called at service end, when all three times are known. In the tandem
  /// model a station's residence ends with its own service, so the span
  /// covers the whole traversal.
  void mark_span(std::size_t station, const Request& req) {
#ifndef MEMCA_TRACE_DISABLED
    if (trace_ == nullptr) return;
    const TierTrace& span = req.trace_at(station);
    trace_->record(trace::TraceEvent{sim_.now(), req.id, span.enter,
                                     static_cast<double>(span.service_start), req.user,
                                     static_cast<std::int16_t>(station),
                                     trace::EventKind::kTierSpan,
                                     static_cast<std::uint8_t>(req.attempt())});
#else
    (void)station;
    (void)req;
#endif
  }

  /// Appends a request-scoped point event (kDrop) iff a recorder is attached.
  void mark(trace::EventKind kind, std::size_t station, const Request& req) {
#ifndef MEMCA_TRACE_DISABLED
    if (trace_ == nullptr) return;
    trace_->record(trace::TraceEvent{sim_.now(), req.id, 0, 0.0, req.user,
                                     static_cast<std::int16_t>(station), kind,
                                     static_cast<std::uint8_t>(req.attempt())});
#else
    (void)kind;
    (void)station;
    (void)req;
#endif
  }

  Simulator& sim_;
  std::vector<Station> stations_;

 public:
  /// Checkpoint of the tandem chain: pool + counters + every station's
  /// worker bank, waiting room and residence histogram. Station count must
  /// match at restore().
  struct Snapshot {
    struct StationState {
      WorkStation::Snapshot workers;
      RingQueue<std::uint32_t>::Snapshot queue;
      LatencyHistogram residence_time;
    };
    CountersSnapshot counters;
    std::vector<StationState> stations;
  };

  void capture(Snapshot& out) const {
    capture_counters(out.counters);
    out.stations.resize(stations_.size());
    for (std::size_t i = 0; i < stations_.size(); ++i) {
      stations_[i].workers->capture(out.stations[i].workers);
      stations_[i].queue.capture(out.stations[i].queue);
      out.stations[i].residence_time = stations_[i].residence_time;
    }
  }

  void restore(const Snapshot& snap) {
    MEMCA_CHECK(snap.stations.size() == stations_.size());
    restore_counters(snap.counters);
    for (std::size_t i = 0; i < stations_.size(); ++i) {
      stations_[i].workers->restore(snap.stations[i].workers);
      stations_[i].queue.restore(snap.stations[i].queue);
      stations_[i].residence_time = snap.stations[i].residence_time;
    }
  }
};

}  // namespace memca::queueing
