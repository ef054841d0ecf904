// Dedicated task assignment: shorts to the short host, longs to the long
// host, no stealing — each host is a plain M/G/1 (Pollaczek-Khinchine).
#pragma once

#include "core/config.h"

namespace csq::analysis {

// Throws csq::UnstableError (a std::domain_error) when either host is
// overloaded and csq::InvalidInputError on malformed configs, including a
// set short_arrivals MAP (this model is Poisson-only). Fault
// injection inside the M/G/1 moment kernels can also surface
// csq::DeadlineExceededError / csq::CancelledError (the shared fault-plan
// machinery, core/faultpoint.h, injects whatever the plan configures).
[[nodiscard]] PolicyMetrics analyze_dedicated(const SystemConfig& config);

}  // namespace csq::analysis
