// Compile fixture, expected to build: the twin of float_eq_bad.cc. The named
// helpers of core/numeric.h switch the warning off for their own bodies
// only, and integer == is untouched by the flag.
#include "core/numeric.h"

bool near_one(double x) { return csq::num::approx_eq(x, 1.0); }
bool is_zero(double x) { return csq::num::exactly_zero(x); }
bool same_bits(double a, double b) { return csq::num::exactly_eq(a, b); }
bool int_eq(int a, int b) { return a == b; }
