"""Exact rational linear feasibility and optimization.

A small dense simplex over ``fractions.Fraction``: two phases, Bland's
anti-cycling pivot rule, free variables handled by the classic split
x = p - q.  Everything is exact; a returned witness satisfies every
constraint under exact re-evaluation, and every infeasibility verdict
carries a Farkas certificate (a nonnegative combination of constraints
whose variable coefficients cancel and whose constant is negative).

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
        return LinearForm.make({v: c * factor for v, c in self.coeffs}, self.const * factor)

    def __add__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm.make(
            list(self.coeffs) + list(other.coeffs), self.const + other.const
        )

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + other.scale(-1)

    def __neg__(self) -> "LinearForm":
        return self.scale(-1)

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
    combo = LinearForm.make({}, 0)
    for mult, (form, rel) in zip(cert.multipliers, system.constraints):
        if rel == GT:
            return False
        if rel == GE and mult < 0:
            return False
        combo = combo + form.scale(mult)
    return not combo.coeffs and combo.const < 0


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

    Entries are ``gmpy2.mpq`` when available (same exact semantics as
    Fraction, several times faster in the pivot loop).
    """

    def __init__(self, rows: list[list], rhs: list, n_real: int):
        self.n_real = n_real  # columns before the artificial block
        m = len(rows)
        self.n_cols = n_real + m
        self.rows = []
        for i, row in enumerate(rows):
            full = [_num(c) for c in row] + [_NZERO] * m
            full[n_real + i] = _NONE
            full.append(_num(rhs[i]))
            self.rows.append(full)
        self.basis = [n_real + i for i in range(m)]
        self.obj: list = []

    def set_objective(self, costs: list):
        """Install the reduced-cost row for ``costs`` (length n_cols)."""
        m = len(self.rows)
        obj = [_num(c) for c in costs] + [_NZERO]  # last cell: objective value
        for i in range(m):
            cb = _num(costs[self.basis[i]])
            if cb:
                row = self.rows[i]
                for j in range(self.n_cols + 1):
                    if row[j]:
                        obj[j] -= cb * row[j]
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
        """Bland's rule until optimal or unbounded; returns the outcome."""
        while True:
            pc = -1
            for j in range(self.n_cols):
                if allowed[j] and self.obj[j] > 0:
                    pc = j
                    break
            if pc < 0:
                return "optimal"
            pr = -1
            best = None
            for i, row in enumerate(self.rows):
                if row[pc] > 0:
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
    """Split free variables and convert to equalities with rhs >= 0.

    Returns (matrix rows, rhs, sign flips, slack column per row, n_real).
    Column layout: p-block, q-block (x = p - q), then one slack column
    per inequality row.
    """
    variables = system.variables
    vindex = {v: i for i, v in enumerate(variables)}
    n = len(variables)
    ineq_rows = [i for i, (_, rel) in enumerate(system.constraints) if rel == GE]
    slack_col = {row: 2 * n + k for k, row in enumerate(ineq_rows)}
    n_real = 2 * n + len(ineq_rows)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    flips: list[Fraction] = []
    for i, (form, rel) in enumerate(system.constraints):
        row = [ZERO] * n_real
        for v, c in form.coeffs:
            j = vindex[v]
            row[j] += c
            row[n + j] -= c
        if rel == GE:
            row[slack_col[i]] = -ONE
        b = -form.const
        flip = ONE
        if b < 0:
            flip = -ONE
            b = -b
            row = [-c for c in row]
        rows.append(row)
        rhs.append(b)
        flips.append(flip)
    return rows, rhs, flips, n_real


def _farkas_from_phase1(tab: _Tableau, flips: list[Fraction], system: LinearSystem) -> FarkasCertificate:
    m = len(tab.rows)
    # y_i = c_B^T B^{-1} e_i, read off the artificial columns
    y = []
    for i in range(m):
        col = tab.n_real + i
        acc = _NZERO
        for r in range(m):
            if tab.basis[r] >= tab.n_real:  # phase-one cost -1
                acc -= tab.rows[r][col]
        y.append(Fraction(acc))
    mults = tuple(-(y[i] * flips[i]) for i in range(m))
    cert = FarkasCertificate(mults)
    if not verify_certificate(system, cert):
        raise InternalError("Farkas certificate failed re-verification")
    return cert


def _solve(system: LinearSystem, objective: LinearForm | None):
    """Shared core: returns Feasible/Infeasible for objective None, else
    Optimal/Unbounded/Infeasible."""
    if system.has_strict():
        raise ValueError("strict constraints require strict_feasible")
    rows, rhs, flips, n_real = _prepare(system)
    m = len(rows)
    variables = system.variables
    n = len(variables)
    tab = _Tableau(rows, rhs, n_real)

    # phase one: maximize minus the sum of artificials
    costs1 = [ZERO] * tab.n_cols
    for i in range(m):
        costs1[n_real + i] = -ONE
    tab.set_objective(costs1)
    allowed1 = [True] * tab.n_cols
    if tab.run(allowed1) != "optimal":  # objective bounded above by zero
        raise InternalError("phase one of the simplex came out unbounded")
    if tab.value() < 0:
        return Infeasible(_farkas_from_phase1(tab, flips, system))

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
        point = {v: z[j] - z[n + j] for j, v in enumerate(variables)}
        if not system.check(point):
            raise InternalError("LP witness failed re-evaluation")
        return point

    if objective is None:
        return Feasible(witness())

    costs2 = [ZERO] * tab.n_cols
    for v, c in objective.coeffs:
        j = variables.index(v)
        costs2[j] = c
        costs2[n + j] = -c
    tab.set_objective(costs2)
    allowed2 = [j < n_real for j in range(tab.n_cols)]
    outcome = tab.run(allowed2)
    if outcome == "unbounded":
        return Unbounded()
    point = witness()
    return Optimal(objective.evaluate(point), point)


def lp_feasible(system: LinearSystem) -> Feasible | Infeasible:
    """Decide feasibility of a system of = and >= constraints."""
    return _solve(system, None)


def lp_max(system: LinearSystem, objective: LinearForm) -> Optimal | Unbounded | Infeasible:
    """Maximize an affine objective over = and >= constraints."""
    return _solve(system, objective)


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
