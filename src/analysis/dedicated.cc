#include "analysis/dedicated.h"

#include "mg1/mg1.h"
#include "obs/trace.h"

namespace csq::analysis {

PolicyMetrics analyze_dedicated(const SystemConfig& config) {
  CSQ_OBS_SPAN("analysis.dedicated.analyze");
  config.validate();
  config.require_poisson_shorts("analyze_dedicated");
  const dist::Moments xs = config.short_size->moments();
  const dist::Moments xl = config.long_size->moments();
  PolicyMetrics m;
  m.shorts = class_metrics_from_response(mg1::pk_response(config.lambda_short, xs),
                                         config.lambda_short, xs.m1);
  m.longs = class_metrics_from_response(mg1::pk_response(config.lambda_long, xl),
                                        config.lambda_long, xl.m1);
  return m;
}

}  // namespace csq::analysis
