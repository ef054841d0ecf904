// Compile fixture, expected to FAIL in every case: tests/CMakeLists.txt
// compiles it once per CSQ_FIXTURE_CASE, and each case misuses one site of
// obs_catalog_clean.cc. The name tables (obs/catalog.h, core/faultpoint.h)
// accept only their own enumerators, at a site of the row's kind.
#include "core/faultpoint.h"
#include "obs/obs.h"
#include "obs/trace.h"

void sites(double* data, double depth) {
#if CSQ_FIXTURE_CASE == 1
  CSQ_OBS_COUNT("qbd.solve.calls");  // a string literal
#elif CSQ_FIXTURE_CASE == 2
  CSQ_OBS_COUNT(kQbdSolveCall);  // not a catalog row
#elif CSQ_FIXTURE_CASE == 3
  CSQ_OBS_COUNT(kServeQueueDepth);  // a gauge's row
#elif CSQ_FIXTURE_CASE == 4
  CSQ_OBS_SPAN("qbd.solve.logred");  // a string literal
#elif CSQ_FIXTURE_CASE == 5
  CSQ_FAULT_POINT("qbd.solve.boundary");  // a string literal
#elif CSQ_FIXTURE_CASE == 6
  CSQ_FAULT_POINT(kQbdSolveBoundry);  // not a site row
#elif CSQ_FIXTURE_CASE == 7
  CSQ_FAULT_POINT(kQbdLogredIterate);  // a matrix site's row
#endif
  data[0] = depth;
}
