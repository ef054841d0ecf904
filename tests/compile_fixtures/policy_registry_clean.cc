// Compile fixture, expected to build: the twin of policy_registry_bad.cc,
// with every enumerator handled.
enum class PolicyKind : int {
  kAlpha,
  kBeta,
  kGamma,
};

int make_policy(PolicyKind k) {
  switch (k) {
    case PolicyKind::kAlpha: return 1;
    case PolicyKind::kBeta: return 2;
    case PolicyKind::kGamma: return 3;
  }
  return 0;
}
