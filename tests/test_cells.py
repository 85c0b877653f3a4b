import gc
import random
from fractions import Fraction

import pytest

from efgc.cells import (
    EmptyRegionError,
    enumerate_sign_conditions,
    guessed_pieces,
    ordering_forms,
)
from efgc.linprog import EQ, GE, LinearForm, LinearSystem
from helpers import evaluate_signs, path, sign_conditions_reference, single_edge

F = Fraction


def box(names, low=-1, high=1) -> LinearSystem:
    region = LinearSystem(names)
    for v in names:
        region.add(LinearForm.make({v: 1}, -low), GE)  # v >= low
        region.add(LinearForm.make({v: -1}, high), GE)  # v <= high
    return region


def test_single_form_three_cells():
    cells = enumerate_sign_conditions([LinearForm.var("x")], box(["x"]))
    assert sorted(cw.signs for cw in cells) == [(-1,), (0,), (1,)]


def test_two_axes_nine_cells():
    forms = [LinearForm.var("x"), LinearForm.var("y")]
    cells = enumerate_sign_conditions(forms, box(["x", "y"], F(-1, 2), F(1, 2)))
    assert len(cells) == 9


def generic_lines():
    # x = 0, y = 0 and x + y = 1: pairwise crossing, no common point
    return [
        LinearForm.var("x"),
        LinearForm.var("y"),
        LinearForm.make({"x": 1, "y": 1}, -1),
    ]


def test_three_generic_lines_nineteen_cells():
    cells = enumerate_sign_conditions(generic_lines(), box(["x", "y"], -2, 2))
    assert len(cells) == 19
    full = [cw for cw in cells if 0 not in cw.signs]
    assert len(full) == 7
    one_dim = [cw for cw in cells if cw.signs.count(0) == 1]
    assert len(one_dim) == 9
    vertices = [cw for cw in cells if cw.signs.count(0) == 2]
    assert len(vertices) == 3


def test_witnesses_reproduce_their_signs():
    forms = generic_lines()
    for cw in enumerate_sign_conditions(forms, box(["x", "y"], -2, 2)):
        assert evaluate_signs(forms, cw.point) == cw.signs


def test_concurrent_fan_keeps_the_common_point():
    # 13 lines k*x - y through the corner of the unit square: the one
    # point where all of them vanish is a cell of its own
    forms = [LinearForm.make({"x": k, "y": -1}) for k in range(1, 14)]
    cells = enumerate_sign_conditions(forms, box(["x", "y"], 0, 1))
    assert len(cells) == 28
    zeros = [cw.signs.count(0) for cw in cells]
    assert zeros.count(13) == 1  # the origin
    assert zeros.count(1) == 13  # one ray per line
    assert zeros.count(0) == 14  # the sectors between and beside them
    for cw in cells:
        assert evaluate_signs(forms, cw.point) == cw.signs


def test_duplicate_scaled_and_negated_forms():
    x = LinearForm.var("x")
    forms = [x, x.scale(3), -x, LinearForm.constant(F(1, 2)), LinearForm.make({})]
    cells = enumerate_sign_conditions(forms, box(["x"]))
    assert sorted(cw.signs for cw in cells) == [
        (-1, -1, 1, 1, 0),
        (0, 0, 0, 1, 0),
        (1, 1, -1, 1, 0),
    ]


def test_empty_region_raises():
    region = LinearSystem(["x"])
    region.add(LinearForm.make({"x": 1}), GE)
    region.add(LinearForm.make({"x": -1}, -1), GE)  # x <= -1
    with pytest.raises(EmptyRegionError):
        enumerate_sign_conditions([LinearForm.var("x")], region)


def test_region_lp_only_when_the_origin_is_outside(monkeypatch):
    import efgc.cells

    calls = []
    solve = efgc.cells.lp_feasible
    monkeypatch.setattr(efgc.cells, "lp_feasible", lambda s: calls.append(s) or solve(s))
    forms = generic_lines()
    assert len(enumerate_sign_conditions(forms, box(["x", "y"], -2, 2))) == 19
    assert not calls  # seeded at the origin
    shifted = box(["x", "y"], F(1, 4), 2)
    found = enumerate_sign_conditions(forms, shifted)
    assert len(calls) == 1
    assert {cw.signs for cw in found} == sign_conditions_reference(forms, shifted)


def _random_forms(rng: random.Random, names, count):
    forms = []
    for _ in range(count):
        coeffs = {v: F(rng.randint(-3, 3)) for v in names}
        forms.append(LinearForm.make(coeffs, F(rng.randint(-2, 2))))
    return forms


def _homogeneous_forms(rng: random.Random, names, count):
    # every hyperplane passes through the origin, so many meet at once
    return [
        LinearForm.make({v: F(rng.randint(-2, 2)) for v in names})
        for _ in range(count)
    ]


def test_sweep_matches_reference_on_random_arrangements():
    rng = random.Random(909)
    draws = []
    for _ in range(8):
        dim = rng.randint(1, 3)
        names = [f"x{i}" for i in range(dim)]
        draws.append((_random_forms(rng, names, rng.randint(1, 5)), names))
    for _ in range(2):
        names = [f"x{i}" for i in range(rng.randint(3, 4))]
        draws.append((_homogeneous_forms(rng, names, rng.randint(5, 8)), names))
    for forms, names in draws:
        region = box(names, -2, 2)
        sweep = enumerate_sign_conditions(forms, region)
        assert {cw.signs for cw in sweep} == sign_conditions_reference(forms, region)


@pytest.mark.parametrize("s,expected", [(2, 4), (3, 7), (4, 11)])
def test_generic_line_counts(s, expected):
    # s generic lines in the plane make 1 + s + C(s,2) full-dimensional cells
    rng = random.Random(5 + s)
    while True:
        forms = [
            LinearForm.make(
                {"x": F(rng.randint(1, 9)), "y": F(rng.randint(1, 9))},
                F(rng.randint(-9, 9)),
            )
            for _ in range(s)
        ]
        cells = enumerate_sign_conditions(forms, box(["x", "y"], -100, 100))
        full = [cw for cw in cells if 0 not in cw.signs]
        # regenerate the rare degenerate draw (parallel or concurrent lines)
        if len({cw.signs for cw in cells if cw.signs.count(0) >= 2}) == s * (s - 1) // 2:
            assert len(full) == expected
            break


def test_adding_a_form_never_loses_sign_vectors():
    rng = random.Random(42)
    names = ["x", "y"]
    region = box(names, -2, 2)
    for _ in range(5):
        forms = _random_forms(rng, names, 3)
        extra = forms + _random_forms(rng, names, 1)
        base = {cw.signs for cw in enumerate_sign_conditions(forms, region)}
        extended = {
            cw.signs[:3] for cw in enumerate_sign_conditions(extra, region)
        }
        assert base <= extended


def every_ordering_form(inst, endpoint_agent):
    """The ordering forms of every endpoint holder over every edge."""
    return [
        form
        for held in guessed_pieces(endpoint_agent).values()
        for form in ordering_forms(inst, held, inst.graph.edge_ids)
    ]


def test_ordering_forms_vanish_for_identical_agents():
    inst = path(2, {"a1": [F(1, 2), F(1, 2)], "a2": [F(1, 2), F(1, 2)]})
    holders = {("e1", 0): "a1", ("e1", 1): "a1", ("e2", 0): "a2", ("e2", 1): "a2"}
    assert every_ordering_form(inst, holders) == []


def test_ordering_forms_zero_form_dropped_on_ties():
    inst = single_edge({"a": 1, "a1": 1, "a2": 1})
    holders = {("e1", 0): "a", ("e1", 1): "a"}
    # both comparison agents value the lone edge equally: every form is zero
    assert every_ordering_form(inst, holders) == []


def test_ordering_form_hand_expanded():
    # holder a keeps the start of e1; a1 values only e1, a2 only e2, so
    # the (e2, a) comparison form collapses to the single variable x0_e1
    inst = path(
        2,
        {"a": [1, 1], "b": [1, 1], "a1": [1, 0], "a2": [0, 1]},
    )
    holders = {("e1", 0): "a", ("e1", 1): "b", ("e2", 0): "b", ("e2", 1): "b"}
    forms = every_ordering_form(inst, holders)
    assert LinearForm.make({"x0_e1": 1}) in forms


def test_sweep_leaves_no_reference_cycles():
    # nothing is left for the cyclic collector, so a sweep's forms and
    # witnesses are freed as soon as the caller drops them
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            enumerate_sign_conditions(generic_lines(), box(["x", "y"], -2, 2))
            assert gc.collect() == 0
    finally:
        gc.enable()
