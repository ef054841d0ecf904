// Fixture: a reason-less suppression — the marker itself is flagged
// (line 4) and the violation it meant to cover still fires (line 5).
int roll() {
  // csq-lint: allow(banned-identifier)
  return rand();
}
