// Fixture: every suppression form beyond the plain single-line marker —
// block-comment interiors, stacked allow groups, and markers on macro
// continuation lines. All seeded violations below must come back clean.
#include "core/status.h"

/*
 * csq-lint: allow(banned-identifier): fixture — block-comment interior marker
 */
inline int block_covered() { return rand(); }

// csq-lint: allow(raw-throw) allow(banned-identifier): fixture — stacked allows share one reason
inline void stacked_covered() { if (rand() == 0) throw 42; }

#define FIXTURE_ASSERT(x) \
  assert(x)  // csq-lint: allow(banned-identifier): fixture — marker on a macro continuation line
inline int after_macro() { return rand(); }  // rules skip #define bodies: line 15 covers this
