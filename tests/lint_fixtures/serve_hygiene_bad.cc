// Fixture: seeds four serve-hygiene violations (lines 11, 12, 13, 14)
// when linted under a serve path (src/serve/ or tools/csq_serve.cc).
#include <cstdlib>
#include <deque>

#include "obs/obs.h"

std::deque<int> pending_;

void handle(int rc, std::deque<int>* reply_queue) {
  if (rc != 0) std::exit(rc);                   // terminates the process
  if (rc < 0) std::abort();                     // terminates the process
  pending_.push_back(rc);                       // unbounded queue growth
  reply_queue->emplace_back(rc);                // unbounded queue growth
  CSQ_OBS_COUNT(kServeRequestsReceived);        // a catalog counter: fine
}
