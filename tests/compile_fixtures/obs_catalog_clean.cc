// Compile fixture, expected to build: the twin of obs_catalog_bad.cc, with
// every kind of site passing a table enumerator of its own kind.
#include "core/faultpoint.h"
#include "obs/obs.h"
#include "obs/trace.h"

void sites(double* data, double depth) {
  CSQ_OBS_COUNT(kQbdSolveCalls);
  CSQ_OBS_COUNT_N(kQbdLogredDoublings, 3);
  CSQ_OBS_GAUGE_SET(kServeQueueDepth, depth);
  CSQ_OBS_SPAN(kQbdSolveLogred);
  CSQ_FAULT_POINT(kQbdSolveBoundary);
  CSQ_FAULT_POINT_MATRIX(kQbdLogredIterate, data, 1);
  data[0] = depth;
}
