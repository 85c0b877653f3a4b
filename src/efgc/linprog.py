"""Exact rational linear feasibility and optimization.

A small dense simplex: two phases, Bland's anti-cycling pivot rule.
A constraint is stored as ints over one positive denominator, in lowest
terms: the tableau row as it stands.  Witnesses and certificates are
``fractions.Fraction``; the tableau in between is fraction-free
(Bareiss 1968, Edmonds 1967), so the pivot loop does int arithmetic and
one gcd per changed row, and makes the same pivots as a ``Fraction`` one.

A variable bounded by a row ``c*x >= 0`` gets one sign-restricted
column and the row leaves the tableau; only free variables are split
as x = p - q.  Everything is exact; a returned witness satisfies every
constraint under exact re-evaluation, and every infeasibility verdict
carries a Farkas certificate (a nonnegative combination of constraints
whose variable coefficients cancel and whose constant is negative), read
off the final phase-one objective row.  ``RowTest`` refutes a system
from one row, with no tableau.

Strict inequalities are decided by slack maximization: each f > 0
becomes f - t >= 0, the slack t is capped at 1, and t is maximized;
the strict system is feasible exactly when the optimum is positive.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from efgc.model import InternalError, as_rational

ZERO = Fraction(0)

EQ = "="
GE = ">="
GT = ">"

_RELATIONS = (EQ, GE, GT)


@dataclass(frozen=True)
class LinearForm:
    """An affine form: a sparse coefficient vector plus a constant.

    Stored canonically (sorted variables, zero coefficients dropped) so
    forms compare and hash structurally.
    """

    coeffs: tuple[tuple[str, Fraction], ...]
    const: Fraction

    @staticmethod
    def make(coeffs: Mapping[str, object] | Iterable[tuple[str, object]] = (), const=0) -> "LinearForm":
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[str, Fraction] = {}
        for var, c in items:
            acc[var] = acc.get(var, ZERO) + as_rational(c)
        cleaned = tuple(sorted((v, c) for v, c in acc.items() if c != 0))
        return LinearForm(cleaned, as_rational(const))

    @staticmethod
    def var(name: str) -> "LinearForm":
        return LinearForm.make({name: 1})

    @staticmethod
    def constant(value) -> "LinearForm":
        return LinearForm.make({}, value)

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        return sum((c * point.get(v, ZERO) for v, c in self.coeffs), self.const)

    def scale(self, factor) -> "LinearForm":
        factor = as_rational(factor)
        if not factor:
            return LinearForm((), ZERO)
        return LinearForm(tuple((v, c * factor) for v, c in self.coeffs), self.const * factor)

    def _merge(self, terms: Iterable[tuple[str, Fraction]], const: Fraction) -> "LinearForm":
        acc = dict(self.coeffs)
        for v, c in terms:
            acc[v] = acc.get(v, ZERO) + c
        return LinearForm(tuple(sorted(item for item in acc.items() if item[1])), self.const + const)

    def __add__(self, other: "LinearForm") -> "LinearForm":
        return self._merge(other.coeffs, other.const)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self._merge(((v, -c) for v, c in other.coeffs), -other.const)

    def __neg__(self) -> "LinearForm":
        return LinearForm(tuple((v, -c) for v, c in self.coeffs), -self.const)

    def is_zero(self) -> bool:
        return not self.coeffs and self.const == 0


class _Forms(Sequence):
    """A system's rows as (LinearForm, relation) pairs, each built on access."""

    def __init__(self, rows: list[tuple]):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int) -> tuple[LinearForm, str]:
        terms, const, den, rel = self._rows[i]
        return LinearForm(tuple((v, Fraction(c, den)) for v, c in terms), Fraction(const, den)), rel


class LinearSystem:
    """Constraints ``row = 0``, ``row >= 0`` or ``row > 0``, kept in ``rows``
    as (terms, const, den, relation) for (sum c*v + const) / den, in lowest
    terms with den > 0; ``constraints`` shows them as ``LinearForm``s.

    Variables referenced by any constraint are declared automatically in
    first-appearance order; the declaration order fixes the simplex
    column order and therefore the pivot sequence.
    """

    def __init__(self, variables: Iterable[str] = ()):
        self.variables: list[str] = []
        self._known: set[str] = set()
        self.rows: list[tuple] = []
        for v in variables:
            self.declare(v)

    @property
    def constraints(self) -> _Forms:
        return _Forms(self.rows)

    def declare(self, var: str):
        if var not in self._known:
            self._known.add(var)
            self.variables.append(var)

    def add(self, form: LinearForm, rel: str):
        if rel not in _RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        den = lcm(form.const.denominator, *(c.denominator for _, c in form.coeffs))
        terms = tuple((v, c.numerator * (den // c.denominator)) for v, c in form.coeffs)
        self.add_row(terms, form.const.numerator * (den // form.const.denominator), den, rel)

    def add_row(self, terms: tuple[tuple[str, int], ...], const: int, den: int, rel: str):
        """Add (sum c*v + const) / den for ``terms`` sorted by variable with
        no zero coefficient and den > 0, reduced to lowest terms."""
        g = gcd(den, const, *(c for _, c in terms)) if den > 1 else 1
        if g > 1:
            terms, const, den = tuple((v, c // g) for v, c in terms), const // g, den // g
        for v, _ in terms:
            self.declare(v)
        self.rows.append((terms, const, den, rel))

    def copy(self) -> "LinearSystem":
        dup = LinearSystem(self.variables)
        dup.rows = list(self.rows)
        return dup

    def has_strict(self) -> bool:
        return any(row[3] == GT for row in self.rows)

    def check(self, witness: Mapping[str, Fraction]) -> bool:
        """Evaluate every row in ints over the witness's common denominator."""
        scale = lcm(*(x.denominator for x in witness.values()))
        point = {v: x.numerator * (scale // x.denominator) for v, x in witness.items()}
        for terms, const, _, rel in self.rows:
            value = const * scale
            for v, c in terms:
                value += c * point.get(v, 0)
            if value < 0 or (rel == EQ and value) or (rel == GT and not value):
                return False
        return True


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers proving infeasibility, aligned with the constraints."""

    multipliers: tuple[Fraction, ...]


def verify_certificate(system: LinearSystem, cert: FarkasCertificate) -> bool:
    """Recombine the constraints exactly and confirm 0 >= positive: the
    int data of row i weighs mult_i / den_i, over one common denominator."""
    if len(cert.multipliers) != len(system.rows) or system.has_strict():
        return False
    pairs = [(as_rational(m), row) for m, row in zip(cert.multipliers, system.rows)]
    if any(m.numerator < 0 for m, row in pairs if row[3] == GE):
        return False
    used = [(m, row) for m, row in pairs if m]
    scale = lcm(*(m.denominator * row[2] for m, row in used))
    combo: dict[str, int] = {}
    total = 0
    for m, (terms, const, den, _) in used:
        k = m.numerator * (scale // (m.denominator * den))
        for v, c in terms:
            combo[v] = combo.get(v, 0) + k * c
        total += k * const
    return total < 0 and not any(combo.values())


@dataclass(frozen=True)
class Feasible:
    witness: dict[str, Fraction]


@dataclass(frozen=True)
class Infeasible:
    certificate: FarkasCertificate | None = None


@dataclass(frozen=True)
class Optimal:
    value: Fraction
    witness: dict[str, Fraction]


@dataclass(frozen=True)
class Unbounded:
    pass


def _primitive(ints: list[int]) -> list[int]:
    """``ints`` divided by their gcd."""
    g = gcd(*ints)
    return [a // g for a in ints] if g > 1 else ints


class _Tableau:
    """Dense simplex tableau on equalities M z = r, z >= 0, r >= 0.

    Columns, in order: one per variable (its value if sign-restricted,
    its positive part p if free), the negative part q of each free
    variable, one slack per >= row, one artificial per row; the last
    entry of a row is its rhs.

    Every entry is a Python int.  A row stands for itself divided by its
    basic entry, which is kept positive; the objective row for itself
    divided by ``den`` > 0.  A pivot on p > 0 turns each row with entry
    f != 0 in the pivot column into row*p - f*prow, then divides it by
    the gcd of its entries: without that gcd the ints would gain a
    factor p at every pivot, with it each row is the smallest int
    multiple of its rational row.  Pricing reads int signs, and the
    ratio rhs_i / row_i[pc] is the same whatever row i's denominator,
    so the ratio test cross-multiplies ints.  The pivots are exactly
    those of the rational tableau.
    """

    def __init__(self, rows: list[list[int]], n_real: int):
        self.n_real = n_real  # columns before the artificial block
        self.n_cols = n_real + len(rows)
        self.rows = rows
        self.basis = [n_real + i for i in range(len(rows))]
        self.obj: list[int] = []
        self.den = 1

    def set_objective(self, costs: list):
        """Install the reduced-cost row for ``costs``: n_cols rationals."""
        # (numerator, denominator, row) of cost_b / entry_b for basic b
        terms = [(c.numerator, c.denominator * row[b], row)
                 for b, row in zip(self.basis, self.rows) if (c := costs[b])]
        den = lcm(*(c.denominator for c in costs), *(d for _, d, _ in terms))
        obj = [c.numerator * (den // c.denominator) for c in costs]
        obj.append(0)  # last cell: minus the objective value
        for num, d, row in terms:
            k = num * (den // d)
            obj = [o - k * a for o, a in zip(obj, row)]
        *self.obj, self.den = _primitive(obj + [den])

    def pivot(self, pr: int, pc: int):
        """Pivot on a positive entry."""
        rows = self.rows
        prow = rows[pr]
        p = prow[pc]
        for i, row in enumerate(rows):
            f = row[pc]
            if f and i != pr:
                rows[i] = _primitive([a * p - f * b for a, b in zip(row, prow)])
        f = self.obj[pc]
        if f:
            new = [a * p - f * b for a, b in zip(self.obj, prow)]
            *self.obj, self.den = _primitive(new + [self.den * p])
        self.basis[pr] = pc

    def run(self, allowed: Sequence[bool]) -> str:
        """Bland's rule until optimal or unbounded; returns the outcome."""
        n = self.n_cols
        rows = self.rows
        basis = self.basis
        while True:
            obj = self.obj
            pc = next((j for j in range(n) if allowed[j] and obj[j] > 0), -1)
            if pc < 0:
                return "optimal"
            pr, best_r, best_a = -1, 1, 0  # 1/0: no row bounds the step yet
            for i, row in enumerate(rows):
                a = row[pc]
                if a > 0:
                    lhs, rhs = row[n] * best_a, best_r * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[pr]):
                        pr, best_r, best_a = i, row[n], a
            if pr < 0:
                return "unbounded"
            self.pivot(pr, pc)

    def value(self) -> Fraction:
        return Fraction(-self.obj[self.n_cols], self.den)

    def basic_solution(self) -> list[Fraction]:
        z = [ZERO] * self.n_cols
        for b, row in zip(self.basis, self.rows):
            z[b] = Fraction(row[self.n_cols], row[b])
        return z


def _prepare(system: LinearSystem):
    """Lay the system out as a tableau with nonnegative columns and rhs.

    A row ``c*x >= 0`` (one variable, c > 0, zero constant) is a sign
    bound: it leaves the tableau and x keeps one column.  Repeated
    bounds on x leave as well.  Only variables without a bound are free
    and split as x = p - q.  Each kept row is negated where its rhs
    would be negative; its int data is the tableau row, and its
    denominator is its artificial (basic) entry.  Returns
    the tableau, the sign flip and source constraint of each tableau
    row, the bound row of each restricted column and the q column of
    each free one.
    """
    variables = system.variables
    col = {v: j for j, v in enumerate(variables)}
    bound: dict[int, int] = {}
    kept: list[int] = []
    for i, (terms, const, _, rel) in enumerate(system.rows):
        if rel == GE and not const and len(terms) == 1 and terms[0][1] > 0:
            bound.setdefault(col[terms[0][0]], i)
        else:
            kept.append(i)
    free = [j for j in range(len(variables)) if j not in bound]
    neg = {j: len(variables) + k for k, j in enumerate(free)}
    slack = len(variables) + len(free)
    n_real = slack + sum(system.rows[i][3] == GE for i in kept)
    n_cols = n_real + len(kept)
    rows, flips = [], []
    for k, i in enumerate(kept):
        terms, const, den, rel = system.rows[i]
        flip = -1 if const > 0 else 1
        row = [0] * (n_cols + 1)
        for v, c in terms:
            j = col[v]
            row[j] = a = flip * c
            if j in neg:
                row[neg[j]] = -a
        if rel == GE:
            row[slack] = -flip * den
            slack += 1
        row[n_real + k] = den
        row[n_cols] = -flip * const
        rows.append(row)
        flips.append(flip)
    return _Tableau(rows, n_real), flips, kept, bound, neg


def _farkas_from_phase1(tab: _Tableau, system: LinearSystem, flips, kept, bound) -> FarkasCertificate:
    """Read a certificate off the optimal phase-one objective row.

    With phase-one duals y, the artificial of tableau row k has reduced
    cost -1 - y_k, so its constraint gets -y_k, signed back by the row's
    flip.  Reduced costs are <= 0 at the optimum: the slack columns make
    the >= multipliers nonnegative, the p/q pairs cancel free variables,
    and the bound row c*x >= 0 of a restricted x takes -obj[x] / c >= 0,
    which cancels what is left on x.  Repeated bounds get zero.
    """
    obj, den = tab.obj, tab.den
    mults = [ZERO] * len(system.rows)
    for k, i in enumerate(kept):
        mults[i] = Fraction((obj[tab.n_real + k] + den) * flips[k], den)
    for j, i in bound.items():
        ((_, c),), _, row_den, _ = system.rows[i]  # the bound row is c*x/row_den
        mults[i] = Fraction(-obj[j] * row_den, den * c)
    cert = FarkasCertificate(tuple(mults))
    if not verify_certificate(system, cert):
        raise InternalError("Farkas certificate failed re-verification")
    return cert


def _solve(system: LinearSystem, objective: LinearForm | None):
    """Shared core: returns Feasible/Infeasible for objective None, else
    Optimal/Unbounded/Infeasible."""
    if system.has_strict():
        raise ValueError("strict constraints require strict_feasible")
    tab, flips, kept, bound, neg = _prepare(system)
    m = len(tab.rows)
    n_real = tab.n_real
    variables = system.variables

    # phase one: maximize minus the sum of artificials
    tab.set_objective([0] * n_real + [-1] * m)
    if tab.run([True] * tab.n_cols) != "optimal":  # objective bounded above by zero
        raise InternalError("phase one of the simplex came out unbounded")
    if tab.value() < 0:
        return Infeasible(_farkas_from_phase1(tab, system, flips, kept, bound))

    # drive any leftover zero-valued artificials out of the basis
    drop: list[int] = []
    for i in range(m):
        if tab.basis[i] >= n_real:
            prow = tab.rows[i]
            pc = next((j for j in range(n_real) if prow[j]), -1)
            if pc < 0:
                drop.append(i)  # redundant row
                continue
            if prow[pc] < 0:  # its rhs is 0, so the negated row is the same row
                tab.rows[i] = [-a for a in prow]
            tab.pivot(i, pc)
    for i in reversed(drop):
        del tab.rows[i]
        del tab.basis[i]

    def witness() -> dict[str, Fraction]:
        z = tab.basic_solution()
        point = {v: z[j] - z[neg[j]] if j in neg else z[j] for j, v in enumerate(variables)}
        if not system.check(point):
            raise InternalError("LP witness failed re-evaluation")
        return point

    if objective is None:
        return Feasible(witness())

    costs2: list = [0] * tab.n_cols
    for v, c in objective.coeffs:
        j = variables.index(v)
        costs2[j] = c
        if j in neg:
            costs2[neg[j]] = -c
    tab.set_objective(costs2)
    if tab.run([j < n_real for j in range(tab.n_cols)]) == "unbounded":
        return Unbounded()
    point = witness()
    return Optimal(objective.evaluate(point), point)


def lp_feasible(system: LinearSystem) -> Feasible | Infeasible:
    """Decide feasibility of a system of = and >= constraints."""
    return _solve(system, None)


def lp_max(system: LinearSystem, objective: LinearForm) -> Optimal | Unbounded | Infeasible:
    """Maximize an affine objective over = and >= constraints."""
    return _solve(system, objective)


class RowTest:
    """Refute a system from one ``>=`` row, in ints, before the simplex.

    A tiling row sum a_v*x_v = C, all a_v > 0 and C > 0, over sign-bounded
    variables is a simplex.  Over the product of the simplices and x >= 0,
    a ``>=`` row sum c_v*x_v + k has maximum k + C*max_v(c_v/a_v) per
    simplex it touches, a variable absent from the row counting 0, and
    none if a variable outside every simplex has c_v > 0 or no sign bound.
    A negative maximum refutes the system: the row, -max/C times each
    touched tiling row and the sign bounds form a Farkas certificate.  A
    strict system, or a variable in two tiling rows, declines the test.
    """

    def __init__(self, rows: Sequence[tuple]):
        bounded = {t[0][0] for t, k, _, rel in rows
                   if rel == GE and not k and len(t) == 1 and t[0][1] > 0}
        simplex: dict[str, tuple] | None = {}  # variable -> (tiling row, a_v, C, row length)
        for i, (terms, const, _, rel) in enumerate(rows):
            tiling = rel == EQ and const < 0 and all(c > 0 and v in bounded for v, c in terms)
            if rel == GT or tiling and any(v in simplex for v, _ in terms):
                simplex = None
                break
            if tiling:
                simplex.update((v, (i, a, -const, len(terms))) for v, a in terms)
        self._bounded, self._simplex = bounded, simplex

    def refuting_row(self, rows: Sequence[tuple], start: int = 0) -> int | None:
        """The index of the first ``>=`` row of ``rows[start:]`` whose
        maximum is negative, or None; the sum is one int fraction num/den."""
        simplex, bounded = self._simplex, self._bounded
        for i in range(start, len(rows)) if simplex is not None else ():
            terms, const, _, rel = rows[i]
            if rel != GE:
                continue
            best: dict[int, list] = {}  # tiling row -> [c_v, a_v, C, row length, seen]
            for v, c in terms:
                hit = simplex.get(v)
                if hit is None:
                    if c > 0 or v not in bounded:
                        break  # no maximum
                elif (top := best.get(hit[0])) is None:
                    best[hit[0]] = [c, hit[1], hit[2], hit[3], 1]
                else:
                    if c * top[1] > top[0] * hit[1]:
                        top[0], top[1] = c, hit[1]
                    top[4] += 1
            else:
                num, den = const, 1
                for c, a, total, size, seen in best.values():
                    if c > 0 or seen == size:  # else an absent variable's 0 is larger
                        num, den = num * a + total * c * den, den * a
                if num < 0:
                    return i
        return None


_SLACK = "__slack"


def strict_feasible(system: LinearSystem) -> Feasible | Infeasible:
    """Decide feasibility when some constraints are strict (f > 0).

    Every strict constraint is relaxed to f - t >= 0 for a shared slack
    t capped at one, and t is maximized; a positive optimum yields a
    witness with genuinely positive strict values, otherwise the system
    is infeasible.
    """
    if not system.has_strict():
        return lp_feasible(system)
    if _SLACK in system.variables:
        raise ValueError(f"variable name {_SLACK} is reserved")
    relaxed = LinearSystem(system.variables)
    for terms, const, den, rel in system.rows:
        if rel == GT:  # (R - den*t) / den is f - t
            terms, rel = tuple(sorted(terms + ((_SLACK, -den),))), GE
        relaxed.add_row(terms, const, den, rel)
    relaxed.add_row(((_SLACK, -1),), 1, 1, GE)  # cap keeps the LP bounded
    result = lp_max(relaxed, LinearForm.var(_SLACK))
    if isinstance(result, Infeasible):
        return Infeasible(None)
    if not isinstance(result, Optimal):
        raise InternalError("the capped slack came out unbounded")
    if result.value <= 0:
        return Infeasible(None)
    point = dict(result.witness)
    point.pop(_SLACK, None)
    if not system.check(point):
        raise InternalError("strict LP witness failed re-evaluation")
    return Feasible(point)
