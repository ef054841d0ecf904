// Compile fixture, expected to FAIL: a factory switch that misses an
// enumerator does not build under the tree's always-on -Werror=switch —
// the check that keeps sim::make_policy() total over sim::PolicyKind.
enum class PolicyKind : int {
  kAlpha,
  kBeta,
  kGamma,
};

int make_policy(PolicyKind k) {
  switch (k) {
    case PolicyKind::kAlpha: return 1;
    case PolicyKind::kBeta: return 2;
  }
  return 0;
}
