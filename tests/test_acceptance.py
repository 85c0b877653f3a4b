"""Acceptance suite: one test per criterion, one pass/fail line each.

All comparisons are exact rational equality; the only tolerances are
the stated wall-clock budgets.  Witnesses produced by criteria 1-5 are
accumulated so the final criterion can audit them.
"""
import random
import time
import warnings
from fractions import Fraction

from efgc.cells import enumerate_sign_conditions
from efgc.component_lp import (
    solve_cycle,
    solve_tree_gc_bounded_degree,
    solve_tree_vdgc,
)
from efgc.few_edges import solve_few_edges
from efgc.generators import (
    ScaleExceededWarning,
    gen_ladder_tw2,
    gen_matching_plus_two,
    gen_star_from_numpart,
    solve_explicit_oracle,
)
from efgc.linprog import (
    EQ,
    GE,
    Feasible,
    Infeasible,
    LinearForm,
    LinearSystem,
    Optimal,
    lp_feasible,
    lp_max,
    verify_certificate,
)
from efgc.model import verify_assignment
from helpers import (
    as_fractions,
    criterion_4_instances,
    dominant,
    numpart_family_solvable,
    random_cycle_instance,
    random_path_instance,
    random_tree_instance,
    sign_conditions_reference,
    singleton_interval_lengths_agree,
    star3_identical,
)

WITNESSES: list = []  # (instance, assignment) pairs from criteria 1-5


def _record(instance, verdict):
    if verdict.yes:
        WITNESSES.append((instance, verdict.assignment))
    return verdict


def _report(number: int, name: str, ok: bool, detail: str):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_star_impossibility():
    runs = [
        ("few-edges/gc", star3_identical("gc"), solve_few_edges),
        ("few-edges/vdgc", star3_identical("vdgc"), solve_few_edges),
        ("tree-gc", star3_identical("gc"), solve_tree_gc_bounded_degree),
        ("tree-vdgc", star3_identical("vdgc"), solve_tree_vdgc),
        ("oracle/gc", star3_identical("gc"), solve_explicit_oracle),
        ("oracle/vdgc", star3_identical("vdgc"), solve_explicit_oracle),
    ]
    outcomes = []
    for label, inst, solver in runs:
        start = time.perf_counter()
        verdict = _record(inst, solver(inst))
        elapsed = time.perf_counter() - start
        outcomes.append((label, verdict.yes, elapsed))
    ok = all(not yes and dt < 5 for _, yes, dt in outcomes)
    _report(
        1,
        "star impossibility",
        ok,
        "; ".join(f"{label} No in {dt:.2f}s" for label, yes, dt in outcomes),
    )
    for label, yes, dt in outcomes:
        assert not yes, f"{label} returned Yes on the uniform three-leaf star"
        assert dt < 5, f"{label} took {dt:.2f}s (budget 5s)"


def test_criterion_2_path_existence():
    rng = random.Random(602)
    start = time.perf_counter()
    for i in range(50):
        inst = random_path_instance(
            rng, rng.randint(1, 3), rng.randint(1, 3), rng.choice(["gc", "vdgc"])
        )
        verdict = _record(inst, solve_few_edges(inst))
        assert verdict.yes, f"path instance {i} unexpectedly unsolvable: {inst}"
        report = verify_assignment(inst, verdict.assignment)
        assert report.valid, report.failures
    elapsed = time.perf_counter() - start
    _report(2, "path existence", elapsed < 600, f"50/50 Yes, verified, {elapsed:.1f}s")
    assert elapsed < 600


def test_criterion_3_reduction_equivalence():
    # The families encode equal-sum splitting only when no value exceeds
    # half the total; a dominant value always admits a sliver division
    # (see the efgc.generators docstring).  Balanced draws must match the
    # partition DP exactly, dominant draws must be Yes, and every Yes
    # witness must pass the independent verifier.
    rng = random.Random(603)
    start = time.perf_counter()
    regimes = {"balanced Yes": 0, "balanced No": 0, "dominant": 0}
    mismatches = []
    invalid = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScaleExceededWarning)
        for i in range(30):
            values = [rng.randint(1, 8) for _ in range(rng.randint(1, 4))]
            expected = numpart_family_solvable(values)
            if dominant(values):
                regimes["dominant"] += 1
            else:
                regimes["balanced Yes" if expected else "balanced No"] += 1
            star = gen_star_from_numpart(values)
            matching = gen_matching_plus_two(values)
            ladder = gen_ladder_tw2(values, "vdgc")
            verdicts = (
                ("star", star, _record(star, solve_tree_gc_bounded_degree(star))),
                ("matching2", matching, solve_explicit_oracle(matching)),
                ("ladder", ladder, solve_explicit_oracle(ladder)),
            )
            for family, inst, verdict in verdicts:
                if verdict.yes != expected:
                    mismatches.append((family, values, verdict.yes, expected))
                elif verdict.yes and not verify_assignment(
                    inst, verdict.assignment
                ).valid:
                    invalid.append((family, values))
    elapsed = time.perf_counter() - start
    ok = not mismatches and not invalid and all(regimes.values()) and elapsed < 900
    detail = (
        f"90 comparisons in {elapsed:.1f}s over "
        + ", ".join(f"{count} {regime}" for regime, count in regimes.items())
        + f" draws; {len(mismatches)} mismatches, {len(invalid)} invalid witnesses"
    )
    _report(3, "reduction equivalence", ok, detail)
    assert elapsed < 900
    assert all(regimes.values()), f"the draws miss a regime: {regimes}"
    assert not mismatches, (
        "verdicts differ from the partition DP (balanced) or from Yes"
        f" (dominant): {mismatches[:6]}"
    )
    assert not invalid, f"Yes witnesses fail verify_assignment: {invalid[:6]}"


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    yes_count = 0
    for i, inst in enumerate(criterion_4_instances()):
        fe = _record(inst, solve_few_edges(inst))
        oracle = solve_explicit_oracle(inst)
        assert fe.yes == oracle.yes, f"instance {i}: few-edges {fe.yes}, oracle {oracle.yes}: {inst}"
        if fe.yes:
            yes_count += 1
            assert verify_assignment(inst, fe.assignment).valid
    elapsed = time.perf_counter() - start
    _report(
        4,
        "oracle equivalence",
        elapsed < 1800,
        f"100/100 agree ({yes_count} Yes), {elapsed:.1f}s",
    )
    assert elapsed < 1800


def test_criterion_5_specialized_agreement():
    rng = random.Random(605)
    start = time.perf_counter()
    for i in range(50):
        inst = random_tree_instance(rng, rng.randint(1, 4), rng.randint(1, 3), "vdgc")
        tree = _record(inst, solve_tree_vdgc(inst))
        oracle = solve_explicit_oracle(inst)
        assert tree.yes == oracle.yes, f"tree instance {i}: {inst}"
    for i in range(30):
        inst = random_cycle_instance(
            rng, rng.randint(3, 4), rng.randint(1, 2), rng.choice(["gc", "vdgc"])
        )
        cyc = _record(inst, solve_cycle(inst))
        oracle = solve_explicit_oracle(inst)
        assert cyc.yes == oracle.yes, f"cycle instance {i}: {inst}"
    elapsed = time.perf_counter() - start
    _report(5, "specialized agreement", elapsed < 1200, f"80/80 agree, {elapsed:.1f}s")
    assert elapsed < 1200


def _random_polytope_and_forms(rng: random.Random):
    dim = rng.randint(1, 4)
    target = rng.randint(2, 10) if dim < 4 else rng.randint(2, 7)
    names = [f"x{i}" for i in range(dim)]
    region = LinearSystem(names)
    for v in names:
        region.add(LinearForm.make({v: 1}, 2), GE)
        region.add(LinearForm.make({v: -1}, 2), GE)
    forms = []
    for _ in range(target):
        coeffs = {
            v: Fraction(rng.randint(-60, 60), rng.randint(1, 13)) for v in names
        }
        forms.append(
            LinearForm.make(coeffs, Fraction(rng.randint(-40, 40), rng.randint(1, 13)))
        )
    return forms, region


def test_criterion_6_arrangement_completeness():
    rng = random.Random(606)
    start = time.perf_counter()
    for i in range(25):
        forms, region = _random_polytope_and_forms(rng)
        sweep = enumerate_sign_conditions(forms, region)
        assert {cw.signs for cw in sweep} == sign_conditions_reference(
            forms, region
        ), f"arrangement {i}: sweep and reference disagree"
    # generic lines in the plane: 1 + s + C(s,2) full-dimensional cells
    for s, expected in ((2, 4), (3, 7), (4, 11)):
        while True:
            forms = [
                LinearForm.make(
                    {"x": Fraction(rng.randint(1, 9)), "y": Fraction(rng.randint(1, 9))},
                    Fraction(rng.randint(-9, 9)),
                )
                for _ in range(s)
            ]
            region = LinearSystem(["x", "y"])
            for v in ("x", "y"):
                region.add(LinearForm.make({v: 1}, 100), GE)
                region.add(LinearForm.make({v: -1}, 100), GE)
            cells = enumerate_sign_conditions(forms, region)
            vertices = {cw.signs for cw in cells if cw.signs.count(0) >= 2}
            if len(vertices) == s * (s - 1) // 2:  # confirmed generic draw
                full = [cw for cw in cells if 0 not in cw.signs]
                assert len(full) == expected, f"{s} lines: {len(full)} cells"
                break
    elapsed = time.perf_counter() - start
    _report(
        6,
        "arrangement completeness",
        elapsed < 600,
        f"25 reference/sweep agreements + generic counts 4/7/11, {elapsed:.1f}s",
    )
    assert elapsed < 600


def test_criterion_7_lp_exactness():
    rng = random.Random(607)
    start = time.perf_counter()
    feasible = infeasible = 0
    for i in range(50):
        names = [f"v{j}" for j in range(rng.randint(1, 5))]
        system = LinearSystem(names)
        for _ in range(rng.randint(2, 10)):
            coeffs = {v: Fraction(rng.randint(-4, 4)) for v in names}
            system.add(
                LinearForm.make(coeffs, Fraction(rng.randint(-5, 5))),
                GE if rng.random() < 0.75 else EQ,
            )
        result = lp_feasible(system)
        if isinstance(result, Feasible):
            feasible += 1
            assert system.check(result.den, result.point)
        else:
            infeasible += 1
            assert verify_certificate(system, result.certificate)
        objective = LinearForm.make({v: Fraction(rng.randint(-2, 2)) for v in names})
        outcome = lp_max(system, objective)
        if isinstance(outcome, Optimal):
            assert system.check(outcome.den, outcome.point)
            assert objective.evaluate(as_fractions(outcome)) == outcome.value
        elif isinstance(outcome, Infeasible):
            assert verify_certificate(system, outcome.certificate)
    elapsed = time.perf_counter() - start
    ok = feasible and infeasible and elapsed < 120
    _report(
        7,
        "lp exactness",
        bool(ok),
        f"{feasible} feasible witnesses, {infeasible} certificates, {elapsed:.1f}s",
    )
    assert feasible and infeasible
    assert elapsed < 120


def test_criterion_8_single_interval_lengths():
    pool = WITNESSES
    if not pool:  # standalone run: regenerate a small witness batch
        rng = random.Random(608)
        pool = []
        for _ in range(10):
            inst = random_path_instance(rng, rng.randint(1, 3), rng.randint(1, 3), "gc")
            verdict = solve_few_edges(inst)
            if verdict.yes:
                pool.append((inst, verdict.assignment))
    checked = 0
    for inst, assignment in pool:
        assert singleton_interval_lengths_agree(assignment), assignment
        checked += 1
    _report(
        8,
        "equal single-interval lengths",
        checked > 0,
        f"{checked} witnesses audited",
    )
    assert checked > 0
