// Compile fixture, expected to FAIL: a factory switch that misses an
// enumerator does not build under the tree's always-on -Werror=switch —
// the check that keeps the policy switch behind sim::simulate() total over
// sim::PolicyKind.
enum class PolicyKind : int {
  kAlpha,
  kBeta,
  kGamma,
};

int with_policy(PolicyKind k) {
  switch (k) {
    case PolicyKind::kAlpha: return 1;
    case PolicyKind::kBeta: return 2;
  }
  return 0;
}
