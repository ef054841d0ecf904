// Compile fixture, expected to FAIL: raw floating-point ==/!= does not build
// under the tree's always-on -Werror=float-equal. Bit-exact intent goes
// through csq::num::exactly_eq/exactly_zero, tolerances through approx_eq.
bool near_one(double x) {
  return x == 1.0;
}

bool not_zero(double x) {
  return 0.0 != x;
}
