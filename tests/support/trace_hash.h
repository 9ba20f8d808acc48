// FNV-1a hash of a recorded span stream, for tests that pin one.
#pragma once

#include <cstdint>
#include <cstring>

#include "trace/recorder.h"

namespace memca::tests {

/// FNV-1a over every field of every retained trace event, in order.
inline std::uint64_t trace_hash(const trace::TraceRecorder& recorder) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  recorder.for_each([&](const trace::TraceEvent& ev) {
    std::uint64_t value_bits = 0;
    std::memcpy(&value_bits, &ev.value, sizeof(value_bits));
    mix(static_cast<std::uint64_t>(ev.time));
    mix(static_cast<std::uint64_t>(ev.request));
    mix(static_cast<std::uint64_t>(ev.aux));
    mix(value_bits);
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(ev.user)));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(ev.tier)));
    mix(static_cast<std::uint64_t>(ev.kind));
    mix(ev.attempt);
  });
  return h;
}

}  // namespace memca::tests
