// Fixture: seeds one deadline-poll violation — the driver loop calls the
// iterative kernel `solve_r` (kernel name, qbd module) without ever
// polling a RunBudget or CancelToken inside the loop body.
#include "core/status.h"

namespace csq::qbd {

int solve_r(int x) { return x * 2; }

int drive_unpolled(int n) {
  int acc = 0;
  for (int i = 0; i < n; ++i) {
    acc += solve_r(i);
  }
  return acc;
}

}  // namespace csq::qbd
