#include "workload/router.h"

namespace memca::workload {

namespace {
// Ids carry their source in the low kSourceBits, so the router can dispatch
// a completion to its source without growing the Request struct.
constexpr queueing::Request::Id kSourceMask = RequestRouter::kIdStride - 1;
}  // namespace

RequestRouter::RequestRouter(queueing::RequestSystem& system) : system_(system) {
  system_.set_on_complete([this](const queueing::Request& r) {
    const auto source = static_cast<std::size_t>(r.id & kSourceMask);
    MEMCA_CHECK_MSG(source < sources_.size(), "completion for unregistered source");
    for (auto& observer : completion_observers_) observer(r);
    if (sources_[source].on_complete) sources_[source].on_complete(r);
  });
  system_.set_on_complete_batch([this](queueing::Request* const* reqs, std::size_t n) {
    // A completion group is usually dominated by one source (the client
    // population); dispatch it as maximal consecutive same-source runs so
    // the common case is a single batched callback. Observers stay
    // per-request — they see the same stream either way.
    std::size_t i = 0;
    while (i < n) {
      const auto source = static_cast<std::size_t>(reqs[i]->id & kSourceMask);
      MEMCA_CHECK_MSG(source < sources_.size(), "completion for unregistered source");
      std::size_t j = i + 1;
      while (j < n && static_cast<std::size_t>(reqs[j]->id & kSourceMask) == source) ++j;
      for (std::size_t k = i; k < j; ++k) {
        for (auto& observer : completion_observers_) observer(*reqs[k]);
      }
      Source& src = sources_[source];
      if (src.on_complete_batch) {
        src.on_complete_batch(reqs + i, j - i);
      } else if (src.on_complete) {
        for (std::size_t k = i; k < j; ++k) src.on_complete(*reqs[k]);
      }
      i = j;
    }
  });
  system_.set_on_drop([this](const queueing::Request& r) {
    const auto source = static_cast<std::size_t>(r.id & kSourceMask);
    MEMCA_CHECK_MSG(source < sources_.size(), "drop for unregistered source");
    if (sources_[source].on_drop) sources_[source].on_drop(r);
  });
}

void RequestRouter::add_completion_observer(CompleteFn fn) {
  MEMCA_CHECK(static_cast<bool>(fn));
  completion_observers_.push_back(std::move(fn));
}

int RequestRouter::register_source(CompleteFn on_complete, DropFn on_drop) {
  MEMCA_CHECK_MSG(sources_.size() < (std::size_t{1} << kSourceBits),
                  "too many traffic sources");
  sources_.push_back(Source{std::move(on_complete), std::move(on_drop), {}});
  return static_cast<int>(sources_.size() - 1);
}

void RequestRouter::set_batch_complete(int source, BatchCompleteFn fn) {
  MEMCA_CHECK(source >= 0 && source < static_cast<int>(sources_.size()));
  MEMCA_CHECK(static_cast<bool>(fn));
  sources_[static_cast<std::size_t>(source)].on_complete_batch = std::move(fn);
}

queueing::Request* RequestRouter::make_request(int source) {
  MEMCA_CHECK(source >= 0 && source < static_cast<int>(sources_.size()));
  queueing::Request* req = system_.acquire();
  req->id = (next_id_++ << kSourceBits) | static_cast<queueing::Request::Id>(source);
  return req;
}

bool RequestRouter::submit(queueing::Request* req) { return system_.submit(req); }

queueing::Request::Id RequestRouter::reject_at_door(int source, std::int64_t n) {
  MEMCA_CHECK(source >= 0 && source < static_cast<int>(sources_.size()));
  MEMCA_CHECK(n > 0);
  const queueing::Request::Id first =
      (next_id_ << kSourceBits) | static_cast<queueing::Request::Id>(source);
  next_id_ += n;
  system_.reject_at_door(n);
  return first;
}

}  // namespace memca::workload
