// Skip guard for tests that read recorded span events.
//
// Recording compiles out to nothing under MEMCA_TRACE=OFF, so a test that
// inspects the span stream starts with MEMCA_SKIP_IF_TRACE_DISABLED(): it
// skips in that build instead of failing on an empty recorder.
#pragma once

#include <gtest/gtest.h>

#ifdef MEMCA_TRACE_DISABLED
#define MEMCA_SKIP_IF_TRACE_DISABLED() \
  GTEST_SKIP() << "tracing compiled out (MEMCA_TRACE=OFF)"
#else
#define MEMCA_SKIP_IF_TRACE_DISABLED()
#endif
