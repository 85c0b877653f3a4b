"""Exact rational linear feasibility and optimization.

A small dense simplex over ``fractions.Fraction``: two phases, Bland's
anti-cycling pivot rule.  A variable bounded by a row ``c*x >= 0`` gets
one sign-restricted column and the row leaves the tableau; only free
variables are split as x = p - q.  Everything is exact; a returned
witness satisfies every constraint under exact re-evaluation, and every
infeasibility verdict carries a Farkas certificate (a nonnegative
combination of constraints whose variable coefficients cancel and whose
constant is negative), read off the final phase-one objective row.

Strict inequalities are decided by slack maximization: each f > 0
becomes f - t >= 0, the slack t is capped at 1, and t is maximized;
the strict system is feasible exactly when the optimum is positive.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from efgc.model import InternalError, as_rational

try:  # exact C-implemented rationals for the pivot loop, if present
    from gmpy2 import mpq as _num
except ImportError:
    _num = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
_NZERO = _num(0)
_NONE = _num(1)

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

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

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


class LinearSystem:
    """Constraints ``form = 0``, ``form >= 0`` or ``form > 0``.

    Variables referenced by any constraint are declared automatically in
    first-appearance order; the declaration order fixes the simplex
    column order and therefore the pivot sequence.
    """

    def __init__(self, variables: Iterable[str] = ()):
        self.variables: list[str] = []
        self._known: set[str] = set()
        self.constraints: list[tuple[LinearForm, str]] = []
        for v in variables:
            self.declare(v)

    def declare(self, var: str):
        if var not in self._known:
            self._known.add(var)
            self.variables.append(var)

    def add(self, form: LinearForm, rel: str):
        if rel not in _RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        for v in form.variables:
            self.declare(v)
        self.constraints.append((form, rel))

    def copy(self) -> "LinearSystem":
        dup = LinearSystem(self.variables)
        dup.constraints = list(self.constraints)
        return dup

    def has_strict(self) -> bool:
        return any(rel == GT for _, rel in self.constraints)

    def check(self, witness: Mapping[str, Fraction]) -> bool:
        for form, rel in self.constraints:
            value = form.evaluate(witness)
            if rel == EQ and value != 0:
                return False
            if rel == GE and value < 0:
                return False
            if rel == GT and value <= 0:
                return False
        return True


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers proving infeasibility, aligned with the constraints."""

    multipliers: tuple[Fraction, ...]


def verify_certificate(system: LinearSystem, cert: FarkasCertificate) -> bool:
    """Recombine the constraints exactly and confirm 0 >= positive."""
    if len(cert.multipliers) != len(system.constraints):
        return False
    combo: dict[str, Fraction] = {}
    const = ZERO
    for mult, (form, rel) in zip(cert.multipliers, system.constraints):
        mult = as_rational(mult)
        if rel == GT or (rel == GE and mult.numerator < 0):
            return False
        if mult.numerator:
            for v, c in form.coeffs:
                combo[v] = combo.get(v, ZERO) + mult * c
            if form.const:
                const += mult * form.const
    return const.numerator < 0 and not any(combo.values())


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


class _Tableau:
    """Dense simplex tableau on equalities M z = r, z >= 0, r >= 0.

    Columns, in order: one per variable (its value if sign-restricted,
    its positive part p if free), the negative part q of each free
    variable, one slack per >= row, one artificial per row.  Entries are
    ``gmpy2.mpq`` when available (same exact semantics as Fraction,
    several times faster in the pivot loop).
    """

    def __init__(self, rows: list[list], rhs: list, n_real: int):
        self.n_real = n_real  # columns before the artificial block
        m = len(rows)
        self.n_cols = n_real + m
        self.rows = []
        for i, row in enumerate(rows):
            full = row + [_NZERO] * m
            full[n_real + i] = _NONE
            full.append(rhs[i])
            self.rows.append(full)
        self.basis = [n_real + i for i in range(m)]
        self.obj: list = []

    def set_objective(self, costs: list):
        """Install the reduced-cost row for ``costs``: n_cols entries of the
        tableau's number type."""
        obj = costs + [_NZERO]  # last cell: objective value
        for b, row in zip(self.basis, self.rows):
            cb = costs[b]
            if cb:
                for j, a in enumerate(row):
                    if a:
                        obj[j] -= cb * a
        self.obj = obj

    def pivot(self, pr: int, pc: int):
        rows = self.rows
        prow = rows[pr]
        inv = _NONE / prow[pc]
        if inv != 1:
            for j in range(self.n_cols + 1):
                if prow[j]:
                    prow[j] *= inv
        hot = [j for j in range(self.n_cols + 1) if prow[j]]
        for row in rows + [self.obj]:
            if row is prow:
                continue
            factor = row[pc]
            if factor:
                for j in hot:
                    row[j] -= factor * prow[j]
        self.basis[pr] = pc

    def run(self, allowed: Sequence[bool]) -> str:
        """Bland's rule until optimal or unbounded; returns the outcome.
        Signs are read off numerators, sparing a rational comparison."""
        while True:
            pc = -1
            obj = self.obj
            for j in range(self.n_cols):
                if allowed[j] and obj[j].numerator > 0:
                    pc = j
                    break
            if pc < 0:
                return "optimal"
            pr = -1
            best = None
            for i, row in enumerate(self.rows):
                if row[pc].numerator > 0:
                    ratio = row[self.n_cols] / row[pc]
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[pr]
                    ):
                        best = ratio
                        pr = i
            if pr < 0:
                return "unbounded"
            self.pivot(pr, pc)

    def value(self) -> Fraction:
        return -Fraction(self.obj[self.n_cols])

    def basic_solution(self) -> list[Fraction]:
        z = [ZERO] * self.n_cols
        for i, b in enumerate(self.basis):
            z[b] = Fraction(self.rows[i][self.n_cols])
        return z


def _prepare(system: LinearSystem):
    """Lay the system out as a tableau with nonnegative columns and rhs.

    A row ``c*x >= 0`` (one variable, c > 0, zero constant) is a sign
    bound: it leaves the tableau and x keeps one column.  Repeated
    bounds on x leave as well.  Only variables without a bound are free
    and split as x = p - q.  Each kept row is negated where its rhs
    would be negative.  Returns the tableau, the sign flip and source
    constraint of each tableau row, the bound row of each restricted
    column and the q column of each free one.
    """
    variables = system.variables
    col = {v: j for j, v in enumerate(variables)}
    bound: dict[int, int] = {}
    kept: list[int] = []
    for i, (form, rel) in enumerate(system.constraints):
        if rel == GE and not form.const and len(form.coeffs) == 1 and form.coeffs[0][1] > 0:
            bound.setdefault(col[form.coeffs[0][0]], i)
        else:
            kept.append(i)
    free = [j for j in range(len(variables)) if j not in bound]
    neg = {j: len(variables) + k for k, j in enumerate(free)}
    slack = len(variables) + len(free)
    n_real = slack + sum(system.constraints[i][1] == GE for i in kept)
    rows, rhs, flips = [], [], []
    for i in kept:
        form, rel = system.constraints[i]
        flip = -ONE if form.const > 0 else ONE
        row = [_NZERO] * n_real
        for v, c in form.coeffs:
            j = col[v]
            row[j] = _num(c * flip)
            if j in neg:
                row[neg[j]] = -row[j]
        if rel == GE:
            row[slack] = _num(-flip)
            slack += 1
        rows.append(row)
        rhs.append(_num(-form.const * flip))
        flips.append(flip)
    return _Tableau(rows, rhs, n_real), flips, kept, bound, neg


def _farkas_from_phase1(tab: _Tableau, system: LinearSystem, flips, kept, bound) -> FarkasCertificate:
    """Read a certificate off the optimal phase-one objective row.

    With phase-one duals y, the artificial of tableau row k has reduced
    cost -1 - y_k, so its constraint gets -y_k, signed back by the row's
    flip.  Reduced costs are <= 0 at the optimum: the slack columns make
    the >= multipliers nonnegative, the p/q pairs cancel free variables,
    and the bound row c*x >= 0 of a restricted x takes -obj[x] / c >= 0,
    which cancels what is left on x.  Repeated bounds get zero.
    """
    obj = tab.obj
    mults = [ZERO] * len(system.constraints)
    for k, i in enumerate(kept):
        mults[i] = Fraction(obj[tab.n_real + k] + 1) * flips[k]
    for j, i in bound.items():
        mults[i] = -Fraction(obj[j]) / system.constraints[i][0].coeffs[0][1]
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
    tab.set_objective([_NZERO] * n_real + [-_NONE] * m)
    if tab.run([True] * tab.n_cols) != "optimal":  # objective bounded above by zero
        raise InternalError("phase one of the simplex came out unbounded")
    if tab.value() < 0:
        return Infeasible(_farkas_from_phase1(tab, system, flips, kept, bound))

    # drive any leftover zero-valued artificials out of the basis
    drop: list[int] = []
    for i in range(m):
        if tab.basis[i] >= n_real:
            prow = tab.rows[i]
            pc = next((j for j in range(n_real) if prow[j] != 0), -1)
            if pc >= 0:
                tab.pivot(i, pc)
            else:
                drop.append(i)  # redundant row
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

    costs2 = [_NZERO] * tab.n_cols
    for v, c in objective.coeffs:
        j = variables.index(v)
        costs2[j] = _num(c)
        if j in neg:
            costs2[neg[j]] = -costs2[j]
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


class LPMemo:
    """The LPs already decided in one request, keyed on their set of
    constraints, so that row order and repeated rows do not matter.

    The same set has the same feasible points, so a stored witness
    holds for any system with that set, and a Farkas certificate maps
    over row by row (copies of a row sum onto its first occurrence).
    Every hit is re-checked: the witness by ``check``, the mapped
    certificate by ``verify_certificate``.  Rows are numbered when first
    seen, so a lookup hashes each row's rationals once.
    """

    def __init__(self):
        self._ids: dict[tuple, int] = {}
        self._seen: dict[frozenset[int], tuple[list[int], Feasible | Infeasible]] = {}

    def solve(self, system: LinearSystem, solver) -> Feasible | Infeasible:
        """The memoized verdict on ``system``, else ``solver(system)``;
        ``solver`` returns a certificate with every Infeasible."""
        number = self._ids.setdefault
        rows = [
            number((form.coeffs, form.const, rel), len(self._ids))
            for form, rel in system.constraints
        ]
        key = frozenset(rows)
        hit = self._seen.get(key)
        if hit is None:
            result = solver(system)
            self._seen[key] = (rows, result)
            return result
        old_rows, result = hit
        if isinstance(result, Feasible):
            point = {v: result.witness.get(v, ZERO) for v in system.variables}
            if not system.check(point):
                raise InternalError("memoized LP witness failed re-evaluation")
            return Feasible(point)
        summed: dict[int, Fraction] = {}
        for row, mult in zip(old_rows, result.certificate.multipliers):
            if mult:
                summed[row] = summed[row] + mult if row in summed else mult
        cert = FarkasCertificate(tuple(summed.pop(row, ZERO) for row in rows))
        if not verify_certificate(system, cert):
            raise InternalError("memoized Farkas certificate failed re-verification")
        return Infeasible(cert)


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
    t = LinearForm.var(_SLACK)
    for form, rel in system.constraints:
        if rel == GT:
            relaxed.add(form - t, GE)
        else:
            relaxed.add(form, rel)
    relaxed.add(LinearForm.constant(1) - t, GE)  # cap keeps the LP bounded
    result = lp_max(relaxed, t)
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
