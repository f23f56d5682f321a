"""Build q-expansions: eta quotients, theta functions, Lambert series.

Everything is exact rational arithmetic on a fractional exponent grid;
a series knows its truncation and refuses to answer beyond it.
"""

from qlambert.constructors import (
    EtaQuotient,
    GenEtaQuotient,
    gosper_symbols,
    lambert_L,
    lambert_L_odd,
)
from qlambert.dsl import evaluate, parse

print("eta(q) itself, on the 1/24 grid:")
print("  ", evaluate(parse("eta(1)"), 6))

print("\na weight-0 eta quotient:")
unit = EtaQuotient(14, {2: 4, 7: 2, 1: -2, 14: -4})
print("   weight =", unit.weight())
print("  ", unit.series(6))

print("\na generalized eta quotient (half-integer exponents):")
g1 = GenEtaQuotient(14, {6: 2, 1: -2})
print("  ", g1.series(6))

print("\ntheta product f(-q^8, -q^6) as a series:")
print("  ", evaluate(parse("theta(-1,8,-1,6)"), 30))

print("\nLambert series: full, odd-indexed, and their relation")
print("   L(1)    =", lambert_L(1, 8))
print("   Lodd(1) =", lambert_L_odd(1, 8))
diff = lambert_L(1, 8) - lambert_L(2, 8) - lambert_L_odd(1, 8)
print("   L(1) - L(2) - Lodd(1) is zero:", diff.is_zero())

print("\nnamed combinations used throughout the package:")
for name in ("z", "g", "f", "t"):
    print(f"   {name:>2} =", gosper_symbols(name, 6))

print("\nthe Pi-quotient that everything is measured against:")
print("   pi(1)/pi(7) =", evaluate(parse("pi(1)/pi(7)"), 8).truncate(4))
