import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from efgc import linprog
from efgc.linprog import (
    EQ,
    GE,
    GT,
    FarkasCertificate,
    Feasible,
    Infeasible,
    LinearForm,
    LinearSystem,
    Optimal,
    Unbounded,
    lp_feasible,
    lp_max,
    strict_feasible,
    verify_certificate,
)
from efgc.model import InternalError
from helpers import as_fractions, forms_of, fraction_solve, fraction_strict_feasible

F = Fraction
ONE = F(1)
x = LinearForm.var("x")
one = LinearForm.constant(1)


def system(*constraints) -> LinearSystem:
    sys_ = LinearSystem()
    for form, rel in constraints:
        sys_.add(form, rel)
    return sys_


def test_feasible_point_equality():
    res = lp_feasible(system((x, GE), (x - one, EQ)))
    assert isinstance(res, Feasible)
    assert as_fractions(res)["x"] == 1


def test_infeasible_with_certificate():
    sys_ = system((x, GE), (-x - one, GE))  # x >= 0 and -x >= 1
    res = lp_feasible(sys_)
    assert isinstance(res, Infeasible)
    assert verify_certificate(sys_, res.certificate)


def test_max_bounded():
    res = lp_max(system((x, GE), (one - x, GE)), x)
    assert isinstance(res, Optimal)
    assert res.value == 1


def test_max_unbounded():
    res = lp_max(system((x, GE)), x)
    assert isinstance(res, Unbounded)


def test_max_balanced_midpoint():
    t = LinearForm.var("t")
    sys_ = system((x - t, GE), (one - x - t, GE), (one - t, GE))
    res = lp_max(sys_, t)
    assert isinstance(res, Optimal)
    assert res.value == F(1, 2)
    assert as_fractions(res)["x"] == F(1, 2)


def test_strict_capped_slack():
    res = strict_feasible(system((x, GT), (one - x, GE)))
    assert isinstance(res, Feasible)
    assert as_fractions(res)["x"] == 1  # the slack maxes out at the cap


def test_strict_infeasible():
    res = strict_feasible(system((x, GT), (-x, GE)))
    assert isinstance(res, Infeasible)


def test_strict_without_strict_constraints():
    res = strict_feasible(system((x, EQ)))
    assert isinstance(res, Feasible)
    assert as_fractions(res)["x"] == 0


def test_strict_rejected_by_plain_solvers():
    with pytest.raises(ValueError):
        lp_feasible(system((x, GT)))


def test_empty_system_is_feasible():
    res = lp_feasible(LinearSystem(["x"]))
    assert isinstance(res, Feasible)
    assert as_fractions(res) == {"x": 0}


def test_equality_only_negative_rhs():
    # x = -3 is representable with free variables
    res = lp_feasible(system((x + LinearForm.constant(3), EQ)))
    assert isinstance(res, Feasible)
    assert as_fractions(res)["x"] == -3


def _random_system(rng: random.Random, n_vars=4, n_cons=8) -> LinearSystem:
    names = [f"v{i}" for i in range(n_vars)]
    sys_ = LinearSystem(names)
    for _ in range(n_cons):
        coeffs = {v: F(rng.randint(-4, 4)) for v in names}
        const = F(rng.randint(-6, 6))
        rel = GE if rng.random() < 0.8 else EQ
        sys_.add(LinearForm.make(coeffs, const), rel)
    return sys_


def test_random_suite_witnesses_and_certificates():
    rng = random.Random(20240)
    feasible = infeasible = 0
    for _ in range(60):
        sys_ = _random_system(rng)
        res = lp_feasible(sys_)
        if isinstance(res, Feasible):
            feasible += 1
            assert sys_.check(res.den, res.point)
            assert res.den > 0 and gcd(res.den, *res.point.values()) == 1
        else:
            infeasible += 1
            assert verify_certificate(sys_, res.certificate)
    assert feasible > 5 and infeasible > 5


def test_deterministic_resolution():
    rng = random.Random(7)
    for _ in range(20):
        sys_ = _random_system(rng)
        first = lp_feasible(sys_)
        second = lp_feasible(sys_.copy())
        assert type(first) is type(second)
        if isinstance(first, Feasible):
            assert as_fractions(first) == as_fractions(second)
        else:
            assert first.certificate == second.certificate


def test_max_with_objective_constant():
    res = lp_max(system((one - x, GE), (x, GE)), x + LinearForm.constant(5))
    assert isinstance(res, Optimal)
    assert res.value == 6


def test_form_arithmetic_is_canonical():
    f = LinearForm.make({"a": 1, "b": 0}, F(1, 2))
    g = LinearForm.make({"a": -1}, F(-1, 2))
    assert (f + g).is_zero()
    assert f.coeffs == (("a", F(1)),)
    assert f.evaluate({"a": F(1, 2)}) == 1
    assert f.evaluate({}) == F(1, 2)


def _bound_twins(rng: random.Random) -> tuple[LinearSystem, LinearSystem]:
    """A random system and its twin without sign bounds.

    The system mixes sign bounds ``c*x >= 0`` (some scaled, some
    repeated), rows that only look like bounds (``-c*x >= 0``,
    ``c*x = 0``), free variables, equalities and general >= rows.  The
    twin writes every bound as ``c*x + w >= 0`` with ``w = 0``, so no row
    of the twin is a sign bound, yet both systems have the same solutions.
    """
    names = [f"v{i}" for i in range(4)]
    plain, twin = LinearSystem(names), LinearSystem(names)
    w = LinearForm.var("w")
    twin.add(w, EQ)
    rows = []
    for v in names:
        kind = rng.random()
        if kind < 0.6:
            bound = LinearForm.make({v: rng.choice([1, 1, 2, 3])})
            rows += [(bound, GE, True)] * rng.choice([1, 1, 2])
        elif kind < 0.7:
            rows.append((LinearForm.make({v: -rng.choice([1, 2])}), GE, False))
        elif kind < 0.75:
            rows.append((LinearForm.make({v: rng.choice([1, 2])}), EQ, False))
    for _ in range(rng.randint(2, 5)):
        coeffs = {v: rng.randint(-3, 3) for v in rng.sample(names, rng.randint(1, 3))}
        const = rng.choice([c for c in range(-5, 6) if c])
        rows.append((LinearForm.make(coeffs, const), GE if rng.random() < 0.7 else EQ, False))
    rng.shuffle(rows)
    for form, rel, is_bound in rows:
        plain.add(form, rel)
        twin.add(form + w if is_bound else form, rel)
    return plain, twin


def _objective(rng: random.Random) -> LinearForm:
    return LinearForm.make({f"v{i}": rng.randint(-2, 2) for i in range(4)}, rng.randint(-2, 2))


def test_sign_bounds_agree_with_general_rows():
    rng = random.Random(4242)
    seen = {Feasible: 0, Infeasible: 0, Unbounded: 0}
    for _ in range(80):
        plain, twin = _bound_twins(rng)
        objective = _objective(rng)
        decided = [lp_feasible(plain), lp_feasible(twin)]
        best = [lp_max(plain, objective), lp_max(twin, objective)]
        assert type(decided[0]) is type(decided[1])
        assert type(best[0]) is type(best[1])
        seen[type(decided[0])] += 1
        seen[Unbounded] += isinstance(best[0], Unbounded)
        if isinstance(best[0], Optimal):
            assert best[0].value == best[1].value
        for sys_, res in zip((plain, twin, plain, twin), decided + best):
            if isinstance(res, (Feasible, Optimal)):
                assert sys_.check(res.den, res.point)
            if isinstance(res, Infeasible):
                assert verify_certificate(sys_, res.certificate)
                for mult, (form, rel) in zip(res.certificate.multipliers, forms_of(sys_)):
                    if rel == GE and len(form.coeffs) == 1 and not form.const:
                        assert mult >= 0
    assert min(seen.values()) >= 5, seen


def test_verify_certificate_rejects_bad_combinations():
    def cert(*mults):
        return FarkasCertificate(tuple(F(m) for m in mults))

    refuted = system((x, GE), (-x - one, GE))  # x >= 0 and -x >= 1
    assert verify_certificate(refuted, cert(1, 1))
    assert not verify_certificate(refuted, cert(1))  # wrong length
    assert not verify_certificate(refuted, cert(1, 1, 0))
    assert not verify_certificate(refuted, cert(2, 1))  # x is left over
    # the multipliers below cancel x, so only the sign rules decide
    assert verify_certificate(system((x + one, EQ), (x, EQ)), cert(-1, 1))
    assert not verify_certificate(system((x + one, GE), (x, EQ)), cert(-1, 1))
    assert verify_certificate(system((-x - one, GE), (x, GE)), cert(1, 1))
    assert not verify_certificate(system((-x - one, GT), (x, GE)), cert(1, 1))
    # a combination that reads 0 >= 1 or 0 >= 0 proves nothing
    assert not verify_certificate(system((x, GE), (one - x, GE)), cert(1, 1))
    assert not verify_certificate(system((x, GE), (-x, GE)), cert(1, 1))


def _differential_system(rng: random.Random, kind: str) -> LinearSystem:
    """A random system of one of the kinds the int tableau must get right.

    ``big``: coefficients with denominators up to 10^6.  ``ties``:
    homogeneous rows and positive multiples of one another, so many
    ratio tests tie at zero.  ``redundant``: a homogeneous equality
    whose first coefficient is negative, next to a negative multiple of
    itself, so phase one can end with its artificial basic at zero and a
    negative entry in its row.  ``strict``: some rows are > 0.  Every
    kind mixes sign bounds (scaled, some repeated) with free variables,
    and about half get a box that keeps the maximum finite.
    """
    names = [f"v{i}" for i in range(rng.randint(2, 5))]
    sys_ = LinearSystem(names)

    def coeff():
        if kind == "big":
            return F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        return F(rng.choice([-3, -2, -1, 0, 0, 1, 2, 3]), rng.choice([1, 1, 2, 3]))

    def form(const):
        return LinearForm.make({v: coeff() for v in names if rng.random() < 0.7}, const)

    rows = []
    for v in names:
        if rng.random() < 0.6:
            bound = LinearForm.make({v: F(rng.randint(1, 9), rng.randint(1, 4))})
            rows += [(bound, GE)] * rng.choice([1, 1, 2])
    for _ in range(rng.randint(1, 5)):
        if kind == "ties":
            base = form(0)
            rows += [(base.scale(rng.randint(1, 3)), rng.choice([GE, GE, EQ]))]
            rows += [(base, GE)] * rng.choice([0, 1])
        else:
            rel = rng.choice([GE, GE, EQ] + [GT, GT] * (kind == "strict"))
            rows.append((form(coeff() if rng.random() < 0.8 else 0), rel))
    if kind == "redundant":
        lead = LinearForm.make({names[0]: -rng.randint(1, 3)})
        base = lead + form(0)
        if base.coeffs and base.coeffs[0][1] < 0:
            rows += [(base, EQ), (base.scale(-F(rng.randint(1, 5), rng.randint(1, 5))), EQ)]
    if rng.random() < 0.5:
        cap = F(rng.randint(1, 5))
        rows += [(LinearForm.constant(cap) - LinearForm.var(v), GE) for v in names]
        rows += [(LinearForm.constant(cap) + LinearForm.var(v), GE) for v in names]
    rng.shuffle(rows)
    for row in rows:
        sys_.add(*row)
    return sys_


def _artificial_left(sys_: LinearSystem) -> bool:
    """Does phase one end feasible with an artificial still basic (at zero)?"""
    start = linprog._phase_one(sys_)
    return not isinstance(start, Infeasible) and any(b >= start[0].n_real for b in start[0].basis)


def test_integer_tableau_matches_fraction_reference():
    """The int tableau makes the Fraction tableau's pivots: the same
    verdicts, witnesses, optima and certificate multipliers.  Where
    phase one ends with an artificial basic at zero, ``lp_feasible``
    stops there and the reference drives it out: the same point."""
    rng = random.Random(19680)
    kinds = ("big", "ties", "redundant", "strict")
    seen: Counter[str] = Counter()
    for k in range(240):
        kind = kinds[k % len(kinds)]
        sys_ = _differential_system(rng, kind)
        objective = LinearForm.make({v: rng.randint(-3, 3) for v in sys_.variables}, rng.randint(-2, 2))
        if kind == "strict":
            pairs = [(strict_feasible(sys_), fraction_strict_feasible(sys_))]
        else:
            pairs = [
                (lp_feasible(sys_), fraction_solve(sys_, None)),
                (lp_max(sys_, objective), fraction_solve(sys_, objective)),
            ]
            seen["artificial left"] += _artificial_left(sys_)
        for new, ref in pairs:
            assert new == ref, (kind, k)
            seen[f"{kind}/{type(new).__name__}"] += 1
    for outcome in ("big/Infeasible", "big/Optimal", "ties/Optimal", "ties/Unbounded",
                    "redundant/Optimal", "strict/Feasible", "strict/Infeasible", "artificial left"):
        assert seen[outcome] >= 5, seen


def test_lp_feasible_stops_at_phase_one(monkeypatch):
    """x + y = 1 with x - y >= 0 and y - x >= 0: phase one ends with the
    artificial of a zero-constant envy row basic at zero.  ``lp_feasible``
    makes no pivot after that run and returns the reference's point, which
    the reference's degenerate drive-out pivots do not move."""
    y = LinearForm.var("y")
    sys_ = system((x, GE), (y, GE), (x + y - one, EQ), (x - y, GE), (y - x, GE))
    events = []
    run, pivot = linprog._Tableau.run, linprog._Tableau.pivot

    def logged_run(tab, *args):
        outcome = run(tab, *args)
        events.append(("run", any(b >= tab.n_real for b in tab.basis)))
        return outcome

    def logged_pivot(tab, *args):
        events.append(("pivot", None))
        pivot(tab, *args)

    monkeypatch.setattr(linprog._Tableau, "run", logged_run)
    monkeypatch.setattr(linprog._Tableau, "pivot", logged_pivot)
    res = lp_feasible(sys_)
    assert events[-1] == ("run", True), events
    assert res == fraction_solve(sys_, None)
    assert as_fractions(res) == {"x": F(1, 2), "y": F(1, 2)}
