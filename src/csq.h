// Umbrella header for the cyclesteal library: analysis and simulation of
// task assignment with cycle stealing (Harchol-Balter et al., ICDCS 2003).
#pragma once

#include "analysis/cscq.h"          // IWYU pragma: export
#include "analysis/csid.h"         // IWYU pragma: export
#include "analysis/dedicated.h"    // IWYU pragma: export
#include "analysis/resilient.h"    // IWYU pragma: export
#include "analysis/stability.h"    // IWYU pragma: export
#include "analysis/truncated_cscq.h"  // IWYU pragma: export
#include "core/config.h"           // IWYU pragma: export
#include "core/deadline.h"         // IWYU pragma: export
#include "core/faultpoint.h"       // IWYU pragma: export
#include "core/solver.h"           // IWYU pragma: export
#include "core/status.h"           // IWYU pragma: export
#include "core/sweep.h"            // IWYU pragma: export
#include "core/table.h"            // IWYU pragma: export
#include "dist/distribution.h"     // IWYU pragma: export
#include "durable/checkpoint.h"    // IWYU pragma: export
#include "durable/journal.h"       // IWYU pragma: export
#include "dist/moment_match.h"     // IWYU pragma: export
#include "dist/phase_type.h"       // IWYU pragma: export
#include "mg1/mg1.h"               // IWYU pragma: export
#include "mg1/mmc.h"               // IWYU pragma: export
#include "obs/obs.h"               // IWYU pragma: export
#include "obs/trace.h"             // IWYU pragma: export
#include "sim/simulator.h"         // IWYU pragma: export
