// Compile fixture, expected to FAIL: built with the qbd layer's include
// roots only (qbd, linalg, obs, core), a header from the higher sim layer is
// not on the include path at all. src/CMakeLists.txt's layer table is the
// module DAG; an upward include is a missing file, not a lint finding.
#include "sim/simulator.h"

csq::SystemConfig upward_config() { return {}; }
