"""The exact rational LP core: witnesses, certificates, strict systems.

Every solver in this package leans on the same simplex over exact
rationals.  Feasible systems return a witness that re-evaluates exactly,
as ints over their least common denominator (x is point["x"] / den);
infeasible ones return a Farkas certificate, a nonnegative mix of the
constraints that adds up to an impossible statement.  Strict
inequalities are decided by maximizing a capped shared slack.
"""
from fractions import Fraction

from efgc.linprog import (
    EQ,
    GE,
    GT,
    Feasible,
    Infeasible,
    LinearForm,
    LinearSystem,
    lp_feasible,
    lp_max,
    strict_feasible,
    verify_certificate,
)

x = LinearForm.var("x")
y = LinearForm.var("y")
one = LinearForm.constant(1)

system = LinearSystem()
system.add(x, GE)                       # x >= 0
system.add(y, GE)                       # y >= 0
system.add(one - x - y, GE)             # x + y <= 1
system.add(x - y - LinearForm.constant(Fraction(1, 3)), EQ)  # x - y = 1/3

result = lp_feasible(system)
assert isinstance(result, Feasible)
print("feasible witness:", {k: str(Fraction(v, result.den)) for k, v in result.point.items()})

objective = x + y
best = lp_max(system, objective)
print("maximum of x + y:", best.value, "at", {k: str(Fraction(v, best.den)) for k, v in best.point.items()})

impossible = LinearSystem()
impossible.add(x, GE)
impossible.add(-x - one, GE)            # -x >= 1
refuted = lp_feasible(impossible)
assert isinstance(refuted, Infeasible)
print("\ninfeasible system, certificate multipliers:", refuted.certificate.multipliers)
print("certificate verifies exactly:", verify_certificate(impossible, refuted.certificate))

open_system = LinearSystem()
open_system.add(x, GT)                  # x > 0
open_system.add(one - x, GE)            # x <= 1
witness = strict_feasible(open_system)
point = {k: Fraction(v, witness.den) for k, v in witness.point.items()}
print("\nstrict system witness keeps x strictly positive:", point)
