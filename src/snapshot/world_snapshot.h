// In-place checkpoint/rollback of a simulated world (memca_snapshot).
//
// A sweep spends most of its wall-clock re-simulating the same warm-up:
// every cell of a parameter grid builds an identical testbed, runs the same
// minutes of steady state, and only then diverges. WorldSnapshot is the
// simulation analog of prefix caching — run the shared prefix once, capture
// the world, and rewind to it before each cell instead of re-simulating.
//
// The defining constraint is that rollback is IN-PLACE. The hot-path state
// of a built world is pointer-stable (arena chunks never relocate, pool
// requests never move, registry cells live in a deque), and scheduled
// closures, registry probes and observers all hold raw pointers into it.
// Destroying and rebuilding objects would invalidate every one of those, so
// capture() copies each component's POD state *aside* and rollback() writes
// it back into the very same objects. After a rollback every bound
// InlineFunction, EventHandle and Request* is exactly as valid as it was at
// the capture instant.
//
// Components participate through a uniform member protocol:
//
//   struct Snapshot { ... };            // value state, plain data
//   void capture(Snapshot&) const;      // copy state aside (may allocate)
//   void restore(const Snapshot&);      // write it back (must not allocate)
//
// attach<T>() binds a component by that protocol; attach_value() covers
// plain copy-assignable state (flags, histograms, small structs). capture()
// may allocate (first-time buffer growth); rollback() must not — restores
// only truncate, memcpy and copy-assign into capacity that already exists,
// which the snapshot allocation test enforces with a counting allocator.
//
// What is deliberately NOT captured: construction-time wiring (tier
// topology, callbacks, RNG fork labels) and anything created after the
// capture (an attack built per cell registers registry cells and observers;
// rollback truncates those registrations away, and the object itself is the
// caller's to destroy *before* rolling back).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/check.h"

namespace memca::snapshot {

class WorldSnapshot {
 public:
  WorldSnapshot() = default;
  WorldSnapshot(const WorldSnapshot&) = delete;
  WorldSnapshot& operator=(const WorldSnapshot&) = delete;

  /// Binds a component implementing the Snapshot/capture/restore protocol.
  /// The component must outlive this WorldSnapshot.
  template <typename T>
    requires requires(T& t, typename T::Snapshot& s) {
      t.capture(s);
      t.restore(s);
    }
  void attach(T& target) {
    auto state = std::make_shared<typename T::Snapshot>();
    captures_.push_back([&target, state] { target.capture(*state); });
    restores_.push_back([&target, state] { target.restore(*state); });
  }

  /// Binds plain copy-assignable state (a flag, a histogram, a POD struct):
  /// capture copies it, rollback assigns it back.
  template <typename T>
  void attach_value(T& target) {
    auto state = std::make_shared<T>();
    captures_.push_back([&target, state] { *state = target; });
    restores_.push_back([&target, state] { target = *state; });
  }

  /// Captures every attached component, in attach order. Calling it again
  /// re-captures (the checkpoint moves forward); buffers from the previous
  /// capture are reused.
  void capture();

  /// Restores every attached component to the captured state, in attach
  /// order. Requires a prior capture(). May be called any number of times —
  /// each rollback rewinds to the same checkpoint — and never allocates.
  void rollback() const;

  bool captured() const { return captured_; }
  std::size_t attached() const { return captures_.size(); }

 private:
  std::vector<std::function<void()>> captures_;
  std::vector<std::function<void()>> restores_;
  bool captured_ = false;
};

}  // namespace memca::snapshot
