// Fixture: clean twin for serve-hygiene — the queue push sits on the bounded
// admit path (justified suppression) and the counter is a catalog row.
#include <deque>

#include "obs/obs.h"

std::deque<int> pending_;

bool admit(int item, std::size_t depth_limit) {
  if (pending_.size() >= depth_limit) return false;
  // csq-lint: allow(serve-hygiene): bounded admit path — depth was checked on the line above
  pending_.push_back(item);
  CSQ_OBS_COUNT(kServeRequestsAdmitted);
  return true;
}
