"""LP rows and witnesses stored as ints over one positive denominator.

The solvers build their rows straight from each agent's int utilities;
these tests hold those rows to rows built from the normalized
``Fraction`` utilities, check that the certificate check weighs each row
by its denominator, that a row is stored the same however it was
built, and that a witness's pieces are those of its ``Fraction``
lengths tiled over their lcm.
"""
import random
from collections import Counter
from fractions import Fraction

import efgc.component_lp as component_lp
import efgc.few_edges as few_edges
import efgc.generators as generators
import efgc.linprog as linprog
from efgc.cells import endpoint_var, guessed_pieces, holdings_value_form
from efgc.component_lp import (
    _cut_var,
    solve_cycle,
    solve_tree_gc_bounded_degree,
    solve_tree_vdgc,
)
from efgc.few_edges import _hot_edges, build_lp, delta_var, solve_few_edges
from efgc.linprog import (
    EQ,
    GE,
    FarkasCertificate,
    Feasible,
    Infeasible,
    LinearForm,
    LinearSystem,
    lp_feasible,
    verify_certificate,
)
from helpers import (
    as_fractions,
    components_without,
    force_paper_route,
    forms_of,
    lowest_terms,
    random_cycle_instance,
    random_graph_instance,
    random_path_instance,
    random_tree_instance,
    star,
)

F = Fraction


def test_certificate_rows_weigh_by_their_denominator():
    # x/2 - 1 >= 0 and -x >= 0: its int data is (x - 2) over 2
    half = LinearSystem()
    half.add(LinearForm.make({"x": F(1, 2)}, -1), GE)
    half.add(LinearForm.make({"x": -1}), GE)
    assert half.rows[0] == ((("x", 1),), -2, 2, GE)

    def cert(*mults):
        return FarkasCertificate(tuple(F(m) for m in mults))

    assert verify_certificate(half, cert(2, 1))  # x - 2 - x = -2
    # x/2 - 1 - x leaves -x/2; summing the int data unweighted would cancel x
    assert not verify_certificate(half, cert(1, 1))
    assert not verify_certificate(half, cert(2, -1))


def test_rows_are_kept_in_lowest_terms():
    system = LinearSystem()
    system.add_row((("x", 6), ("y", -4)), 2, 10, GE)  # (3x - 2y + 1) / 5
    system.add_row((("x", 3),), 0, 3, GE)  # x
    system.add_row((), 0, 7, EQ)
    assert system.rows == [
        ((("x", 3), ("y", -2)), 1, 5, GE),
        ((("x", 1),), 0, 1, GE),
        ((), 0, 1, EQ),
    ]
    form, rel = forms_of(system)[0]
    assert form == LinearForm.make({"x": F(3, 5), "y": F(-2, 5)}, F(1, 5)) and rel == GE


def test_constraints_count_without_building_forms(monkeypatch):
    system = LinearSystem()
    system.add(LinearForm.make({"x": F(2, 3)}, F(-1, 4)), GE)
    system.add(LinearForm.make({"x": 1, "y": 1}, -1), EQ)

    def no_forms(*args):
        raise AssertionError("len built a LinearForm")

    monkeypatch.setattr(linprog, "LinearForm", no_forms)
    assert len(system.constraints) == 2


def test_a_form_row_and_an_int_row_get_one_row_test_verdict():
    # x + y = 1, x, y >= 0 and (-2/3)x - (1/2)y + 1/6 >= 0, whose maximum
    # over the simplex is 1/6 - 1/2 < 0
    def built_from_forms() -> LinearSystem:
        system = LinearSystem()
        system.add(LinearForm.make({"x": F(-2, 3), "y": F(-1, 2)}, F(1, 6)), GE)
        system.add(LinearForm.make({"x": 1, "y": 1}, -1), EQ)
        system.add(LinearForm.var("x"), GE)
        system.add(LinearForm.var("y"), GE)
        return system

    def built_from_ints() -> LinearSystem:
        # the same rows, not in lowest terms and in another order
        system = LinearSystem()
        system.add_row((("x", 5),), 0, 5, GE)
        system.add_row((("x", 2), ("y", 2)), -2, 2, EQ)
        system.add_row((("y", 3),), 0, 3, GE)
        system.add_row((("x", -8), ("y", -6)), 2, 12, GE)
        return system

    forms, ints = built_from_forms(), built_from_ints()
    assert sorted(forms.rows) == sorted(ints.rows)
    # (-4x - 3y + 1) / 6 in lowest terms, whichever way it was built
    assert forms.rows[0] == ints.rows[3] == ((("x", -4), ("y", -3)), 1, 6, GE)
    for system in (forms, ints):
        assert isinstance(lp_feasible(system), Infeasible)


def _vdgc_whole_value_reference(inst, f_prime, end_owners) -> dict:
    """Each (holder, valuer) value of the edges the holder owns whole, from
    the normalized Fraction utilities.  Under vdgc a holder owns whole
    every component of G - f_prime at an end it owns; f_prime is nonempty."""
    graph = inst.graph
    comps = components_without(graph, frozenset(f_prime))
    owner: dict[int, str] = {}
    for e in f_prime:
        for end, agent in enumerate(end_owners[e]):
            vertex = graph.coord_vertex(e, end)
            k = next(k for k, comp in enumerate(comps) if vertex in comp.vertices)
            assert owner.setdefault(k, agent) == agent
    return {
        (b, a): sum((inst.util(a, g) for k in owner if owner[k] == b for g in comps[k].edges), F(0))
        for a in inst.agents
        for b in inst.agents
    }


def _cut_lp_reference(inst, f_prime, end_owners, insiders, whole):
    """``_build_cut_lp`` from the normalized Fraction utilities and the
    whole values ``whole[holder, valuer]``, with each envy row's valuer."""
    agents, util = inst.agents, inst.util
    rows = []
    shares: dict[str, list] = {a: [] for a in agents}
    for e in f_prime:
        names = list(dict.fromkeys(end_owners[e] + tuple(insiders.get(e, ()))))
        for agent in names:
            shares[agent].append((_cut_var(e, agent), e))
            rows.append((LinearForm.var(_cut_var(e, agent)), GE, None))
        rows.append((LinearForm.make({_cut_var(e, a): 1 for a in names}, -1), EQ, None))
    for a in agents:
        for b in agents:
            if a != b:
                coeffs = [(v, util(a, e)) for v, e in shares[a]]
                coeffs += [(v, -util(a, e)) for v, e in shares[b]]
                rows.append((LinearForm.make(coeffs, whole[a, a] - whole[b, a]), GE, a))
    return rows


def test_cut_lp_rows_equal_rows_from_fraction_utilities(monkeypatch):
    calls, owned_checked = [], 0
    build, extract = component_lp._build_cut_lp, component_lp._extract_cut_assignment

    def recording(inst, f_prime, end_owners, insiders, whole_value):
        system = build(inst, f_prime, end_owners, insiders, whole_value)
        dens = inst.dens
        whole = {(b, a): F(v, dens[a]) for b, per in whole_value.items() for a, v in per.items()}
        calls.append((inst, list(f_prime), dict(end_owners), dict(insiders), whole, system))
        return system

    def extracting(inst, f_prime, end_owners, insiders, owned_edges, result):
        # the last LP built is the feasible one: its whole values are those
        # of the edges each holder owns
        nonlocal owned_checked
        whole = calls[-1][4]
        for b, edges in owned_edges.items():
            for a in inst.agents:
                assert whole[b, a] == sum((inst.util(a, g) for g in edges), F(0))
        owned_checked += 1
        return extract(inst, f_prime, end_owners, insiders, owned_edges, result)

    monkeypatch.setattr(component_lp, "_build_cut_lp", recording)
    monkeypatch.setattr(component_lp, "_extract_cut_assignment", extracting)
    rng = random.Random(1313)
    for _ in range(12):
        for variant in ("gc", "vdgc"):
            n_edges, n_agents = rng.randint(1, 3), rng.randint(2, 4)
            tree = random_tree_instance(rng, n_edges, n_agents, variant)
            (solve_tree_vdgc if variant == "vdgc" else solve_tree_gc_bounded_degree)(tree)
            solve_tree_vdgc(random_path_instance(rng, n_edges, n_agents, "vdgc"))
            solve_cycle(random_cycle_instance(rng, rng.randint(3, 4), n_agents, variant))
    assert len(calls) > 300 and owned_checked > 10
    reduced = vdgc_checked = 0
    for inst, f_prime, end_owners, insiders, whole, system in calls:
        if f_prime and inst.variant.value == "vdgc":
            assert whole == _vdgc_whole_value_reference(inst, f_prime, end_owners)
            vdgc_checked += 1
        reference = _cut_lp_reference(inst, f_prime, end_owners, insiders, whole)
        assert forms_of(system) == [(form, rel) for form, rel, _ in reference]
        dens = inst.dens
        reduced += sum(row[2] < dens[a] for row, (_, _, a) in zip(system.rows, reference) if a)
    assert reduced and vdgc_checked > 100  # some rows needed the gcd to reach lowest terms


def _build_lp_reference(inst, guess) -> LinearSystem:
    """``build_lp`` from the normalized Fraction utilities."""
    util = inst.util
    hot = _hot_edges(inst, guess.n)
    pieces = guessed_pieces(guess.endpoint_agent)
    holders = guess.holders
    system = LinearSystem()

    def value(valuer, holder) -> LinearForm:
        return holdings_value_form(inst, valuer, pieces[holder])

    def d(e, c=1) -> LinearForm:
        return LinearForm.make({delta_var(e): c})

    for e in inst.graph.edge_ids:
        x0, x1 = LinearForm.var(endpoint_var(e, 0)), LinearForm.var(endpoint_var(e, 1))
        for var in (x0, d(e), x1) if guess.n[e] else (x0, x1):
            system.add(var, GE)
        system.add(x0 + d(e, guess.n[e]) + x1 - LinearForm.constant(1), EQ)
    for a in holders:
        for b in holders:
            if a != b:
                system.add(value(a, a) - value(a, b), GE)
        for e in hot:
            system.add(value(a, a) - d(e, util(a, e)), GE)
    if guess.placement is not None:
        forms = []
        for b, e in guess.placement.items():
            forms += [d(e, util(b, e)) - d(f, util(b, f)) for f in hot if f != e]
            forms += [d(e, util(b, e)) - value(b, h) for h in holders]
        for form in dict.fromkeys(forms):
            system.add(form, GE)
        return system
    for (e, f), agent in sorted(guess.pair_critical.items()):
        system.add(d(e, util(agent, e)) - d(f, util(agent, f)), GE)
    sample = guess.sample_point
    for e in hot:
        for holder in holders:
            alpha = guess.vertex_critical[(e, holder)]
            s_alpha = value(alpha, holder).evaluate(sample)
            for b in inst.agents:
                if b not in guess.holders and util(b, e) * s_alpha >= util(
                    alpha, e
                ) * value(b, holder).evaluate(sample):
                    system.add(d(e, util(b, e)) - value(b, holder), GE)
    return system


def _few_edges_guesses(monkeypatch, paper_route: bool):
    seen = []
    original = few_edges.build_lp

    def recording(inst, guess):
        seen.append((inst, guess))
        return original(inst, guess)

    rng = random.Random(2727)
    with monkeypatch.context() as patch:
        if paper_route:
            force_paper_route(patch)
        patch.setattr(few_edges, "build_lp", recording)
        # each agent's denominator is 4, and a row on its edge of weight 2 alone reduces to 2
        solve_few_edges(star(3, {"a1": [1, 1, 2], "a2": [1, 1, 2], "a3": [2, 1, 1]}))
        for _ in range(14):
            n_edges, n_agents = rng.randint(1, 3), rng.randint(2, 3 if paper_route else 4)
            variant = rng.choice(["gc", "vdgc"])
            solve_few_edges(random_graph_instance(rng, n_edges, n_agents, variant))
    return seen


def test_few_edges_rows_equal_rows_from_fraction_utilities(monkeypatch):
    for paper_route in (False, True):
        seen = _few_edges_guesses(monkeypatch, paper_route)
        assert len(seen) > 50
        assert all((guess.placement is None) == paper_route for _, guess in seen)
        reduced = 0
        for inst, guess in seen:
            system, reference = build_lp(inst, guess), _build_lp_reference(inst, guess)
            assert system.variables == reference.variables
            assert system.rows == reference.rows
            assert forms_of(system) == forms_of(reference)
            # a denominator that no agent has comes from a reduced row
            reduced += sum(row[2] not in inst.dens.values() for row in system.rows)
        assert reduced


def _spans(pieces) -> list:
    return [(key, piece.den, piece.spans) for key, piece in pieces]


def test_witness_pieces_equal_those_tiled_over_the_lcm(monkeypatch):
    """Every extraction on the few-edges and cut-set corpora gives pieces
    with the ``den`` and ``spans`` of the same extraction from the
    witness's ``Fraction`` lengths over their lcm: the same pieces, not
    just pieces that ``Piece.__eq__`` (which compares edge pieces as
    ``Fraction``s) calls equal."""
    checked, above_one = Counter(), Counter()

    def check(module, name, pieces_of):
        original = getattr(module, name)

        def extracting(*args):
            *rest, result = args
            got = original(*args)
            # the witness as the extractors once read it: its Fraction lengths over their lcm
            want = original(*rest, Feasible(*lowest_terms(as_fractions(result))))
            assert _spans(pieces_of(got)) == _spans(pieces_of(want))
            checked[name] += 1
            above_one[name] += result.den > 1
            return got

        monkeypatch.setattr(module, name, extracting)

    check(few_edges, "extract_assignment", lambda got: [*got[0].items(), *enumerate(got[1])])
    check(component_lp, "_extract_cut_assignment", lambda got: got.items())
    check(generators, "_explicit_extract", lambda got: got.items())
    rng = random.Random(7070)  # the corpus of test_extraction_matches_the_reference
    corpus = [
        random_graph_instance(rng, rng.randint(1, 3), rng.randint(2, 4), variant)
        for variant in ("gc", "vdgc") * 12
    ]
    for inst in corpus:
        solve_few_edges(inst)
        generators.solve_explicit_oracle(inst)
    with monkeypatch.context() as patch:
        force_paper_route(patch)
        for inst in corpus:
            solve_few_edges(inst)
    rng = random.Random(1313)  # the corpus of test_cut_lp_rows_equal_rows_from_fraction_utilities
    for _ in range(12):
        for variant in ("gc", "vdgc"):
            n_edges, n_agents = rng.randint(1, 3), rng.randint(2, 4)
            tree = random_tree_instance(rng, n_edges, n_agents, variant)
            (solve_tree_vdgc if variant == "vdgc" else solve_tree_gc_bounded_degree)(tree)
            solve_tree_vdgc(random_path_instance(rng, n_edges, n_agents, "vdgc"))
            solve_cycle(random_cycle_instance(rng, rng.randint(3, 4), n_agents, variant))
    assert min(above_one[name] for name in checked) > 5 and len(checked) == 3, (checked, above_one)
