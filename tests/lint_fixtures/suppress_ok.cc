// Fixture: a well-formed suppression covering the next line — no findings.
int roll() {
  // csq-lint: allow(banned-identifier): fixture exercises suppression coverage
  return rand();
}
