"""Sign-condition enumeration for linear forms over a rational polytope.

A set of linear forms cuts a region into cells: maximal sets of points
sharing the same sign vector (one of -1, 0, +1 per form).  This module
enumerates every realizable sign vector together with an exact rational
witness point.

The enumeration descends the tree of the 3^s candidate vectors one form
at a time and prunes a prefix that no region point realizes.  The
pruning loses nothing: every prefix of a realizable vector is realized
by the same point, so no realizable vector lies below a pruned prefix.
The result is therefore exactly that of testing all 3^s vectors, also
on faces where many hyperplanes meet (the ordering forms all vanish at
the origin).  Each realizable prefix costs at most two strict LPs,
because its witness already fixes one sign of the next form.  Forms
equal up to positive scaling or negation are deduplicated before
enumeration and their signs reconstructed afterwards.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from efgc.linprog import (
    EQ,
    GT,
    ZERO,
    Feasible,
    Infeasible,
    LinearForm,
    LinearSystem,
    lp_feasible,
    strict_feasible,
)
from efgc.model import EfgcError, Instance


class EmptyRegionError(EfgcError):
    """The supplied region polytope contains no point."""


@dataclass(frozen=True)
class CellWitness:
    """One realizable sign vector and an exact point realizing it."""

    signs: tuple[int, ...]
    point: dict[str, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "point", dict(self.point))


def _sign(value: Fraction) -> int:
    return (value > 0) - (value < 0)


def _canonical(form: LinearForm) -> tuple[LinearForm, int]:
    """Scale so the leading coefficient is +1; report the sign flip."""
    if not form.coeffs:
        return form, 1
    lead = form.coeffs[0][1]
    flip = 1 if lead > 0 else -1
    return form.scale(Fraction(flip) / abs(lead)), flip


def _dedupe(forms: Sequence[LinearForm]):
    """Group forms equal up to positive scaling and negation.

    Returns (unique canonical forms, per-input (group index, flip)),
    where constant forms get group index -1 and their fixed sign as
    flip payload.
    """
    groups: dict[LinearForm, int] = {}
    unique: list[LinearForm] = []
    mapping: list[tuple[int, int]] = []
    for form in forms:
        if not form.coeffs:  # constant form: sign is fixed everywhere
            mapping.append((-1, _sign(form.const)))
            continue
        canon, flip = _canonical(form)
        if canon not in groups:
            groups[canon] = len(unique)
            unique.append(canon)
        mapping.append((groups[canon], flip))
    return unique, mapping


def _sign_constraint(form: LinearForm, sign: int) -> tuple[LinearForm, str]:
    if sign == 0:
        return form, EQ
    if sign > 0:
        return form, GT
    return -form, GT


def _with_signs(region: LinearSystem, pairs) -> LinearSystem:
    sys_ = region.copy()
    for form, sign in pairs:
        sys_.add(*_sign_constraint(form, sign))
    return sys_


def _sweep(
    forms: Sequence[LinearForm], region: LinearSystem, prefix: tuple, witness: dict, found: dict
) -> None:
    """Exhaustive 3^s enumeration with prefix pruning: record in ``found``
    every realizable full vector below ``prefix`` (which ``witness``
    realizes) with a witness.

    A candidate prefix that no region point realizes rules out every
    extension, so its subtree is skipped; every realizable full vector
    is still visited exactly once.
    """
    depth = len(prefix)
    if depth == len(forms):
        found[prefix] = witness
        return
    free_sign = _sign(forms[depth].evaluate(witness))
    for sign in (-1, 0, 1):
        if sign == free_sign:
            _sweep(forms, region, prefix + (sign,), witness, found)
            continue
        pairs = [(forms[i], prefix[i]) for i in range(depth)]
        pairs.append((forms[depth], sign))
        res = strict_feasible(_with_signs(region, pairs))
        if isinstance(res, Feasible):
            point = {v: Fraction(x, res.den) for v, x in res.point.items()}
            _sweep(forms, region, prefix + (sign,), point, found)


def enumerate_sign_conditions(
    forms: Sequence[LinearForm], region: LinearSystem
) -> list[CellWitness]:
    """Enumerate every sign vector of ``forms`` realized inside ``region``.

    ``region`` must be a nonempty bounded polytope given by = and >=
    constraints.  Returns one witness per realizable sign vector over
    the input forms (duplicates and constant forms included), sorted by
    sign vector.  The result is complete for any forms, generic or not;
    the cost is at most two strict LPs per realizable prefix of the
    deduplicated forms.  The sweep starts from the origin when the
    region contains it, else from the witness of one LP over the region.
    """
    if region.has_strict():
        raise ValueError("region must not contain strict constraints")
    seed = {v: Fraction(0) for v in region.variables}
    if not region.check(1, {}):  # the origin
        base = lp_feasible(region)
        if isinstance(base, Infeasible):
            raise EmptyRegionError("region polytope is empty")
        seed = {v: Fraction(x, base.den) for v, x in base.point.items()}
    unique, mapping = _dedupe(forms)
    found: dict[tuple[int, ...], dict] = {}
    _sweep(unique, region, (), seed, found)
    out = []
    for vector, point in found.items():
        full = tuple(
            payload if group < 0 else payload * vector[group]
            for group, payload in mapping
        )
        out.append(CellWitness(full, {v: point.get(v, Fraction(0)) for v in region.variables}))
    out.sort(key=lambda cw: cw.signs)
    return out


def endpoint_var(edge: str, end: int) -> str:
    """LP variable naming for the two endpoint lengths of an edge."""
    return f"x{end}_{edge}"


def guessed_pieces(endpoint_agent: Mapping[tuple[str, int], str]) -> dict[str, list[tuple[str, int]]]:
    """Group the endpoint guesses by agent, in deterministic order."""
    pieces: dict[str, list[tuple[str, int]]] = {}
    for (edge, end), agent in sorted(endpoint_agent.items()):
        pieces.setdefault(agent, []).append((edge, end))
    return pieces


def holdings_value_form(instance: Instance, valuer: str, pieces: Sequence[tuple[str, int]]) -> LinearForm:
    """How ``valuer`` values the endpoint holdings ``pieces``, distinct
    (edge, end) pairs, as a form over the endpoint length variables;
    built in canonical form in one pass."""
    util = instance.util
    terms = [(endpoint_var(e, i), u) for e, i in pieces if (u := util(valuer, e))]
    terms.sort()
    return LinearForm(tuple(terms), ZERO)


def ordering_forms(
    instance: Instance, held: Sequence[tuple[str, int]], edges: Sequence[str]
) -> list[LinearForm]:
    """Comparison forms whose signs order agents by relative envy.

    For an edge e in ``edges``, one holder's endpoint holdings ``held``
    and an agent pair {a1, a2}, the sign of

        u_a2(e) * value_a1(held) - u_a1(e) * value_a2(held)

    tells which of a1, a2 is closer to envying the holder if placed
    inside e.  The comparison is kept division-free so zero utilities
    are handled.  Identically zero forms are dropped.
    """
    agents = instance.agents
    values = {a: holdings_value_form(instance, a, held) for a in agents}
    forms: list[LinearForm] = []
    for e in edges:
        for i, a1 in enumerate(agents):
            for a2 in agents[i + 1 :]:
                form = values[a1].scale(instance.util(a2, e)) - values[a2].scale(
                    instance.util(a1, e)
                )
                if not form.is_zero():
                    forms.append(form)
    return forms
