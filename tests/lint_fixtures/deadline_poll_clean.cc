// Fixture: clean twin of deadline_poll_bad.cc — the same kernel loop, but
// the body polls budget.interrupted() so cancellation can land.
#include "core/status.h"

namespace csq::qbd {

int solve_r(int x) { return x * 2; }

struct FixtureBudget {
  bool interrupted() const { return false; }
};

int drive_polled(int n, const FixtureBudget& budget) {
  int acc = 0;
  for (int i = 0; i < n; ++i) {
    if (budget.interrupted()) return acc;
    acc += solve_r(i);
  }
  return acc;
}

}  // namespace csq::qbd
