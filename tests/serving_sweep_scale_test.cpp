// Hardened environment parsing for the sweep driver's worker-count knob:
// a malformed CIMTPU_SWEEP_THREADS must be rejected loudly instead of
// silently falling back to a default worker count.

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/status.h"
#include "serving/sweep.h"

namespace cimtpu::serving {
namespace {

TEST(SweepEnvTest, MalformedWorkerCountsRejectLoudly) {
  const char* const kBad[] = {
      "abc",                   // non-numeric
      "12x",                   // trailing junk
      "",                      // empty
      "-3",                    // negative: a worker count cannot be
      "99999999999999999999",  // overflows long
      "2147483648",            // overflows int
  };
  for (const char* value : kBad) {
    setenv("CIMTPU_SWEEP_THREADS", value, /*overwrite=*/1);
    EXPECT_THROW(resolve_sweep_threads(0, 10), ConfigError)
        << "CIMTPU_SWEEP_THREADS='" << value << "' was accepted";
    // An explicit count never consults the env: no throw.
    EXPECT_EQ(resolve_sweep_threads(4, 10), 4);
  }
  // Valid values still parse.
  setenv("CIMTPU_SWEEP_THREADS", "7", 1);
  EXPECT_EQ(resolve_sweep_threads(0, 100), 7);
  unsetenv("CIMTPU_SWEEP_THREADS");
}

}  // namespace
}  // namespace cimtpu::serving
