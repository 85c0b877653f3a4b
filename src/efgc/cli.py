"""Command-line interface and plain-text file formats.

Instance files (UTF-8, line oriented, ``#`` starts a comment)::

    efgc-instance v1
    variant gc
    vertices v1 v2 v3        # listing order = the fixed vertex ordering
    edge e1 v1 v2
    edge e2 v2 v3
    agent a1 e1=1 e2=0
    agent a2 e1=0 e2=1

A utility is any non-negative token that ``fractions.Fraction`` reads
(``3``, ``2/4``, ``0.5``, ``1e3``); utilities are scaled to sum to one on load,
omitted edges count as zero, and an edge may appear once per agent.
An ``EDGE=VALUE`` term is split at its last ``=``: a value never holds
one, so an edge id may (``p=q=1`` values edge ``p=q``).
ASCII digits ``N`` or ``N/M`` are read as ints, other tokens through
``Fraction``.  Assignment files hold one ``piece`` line per edge interval::

    efgc-assignment v1
    piece a1 e1 0 1/2 closed closed
    piece a2 e1 1/2 1 open closed

Commands: ``solve`` (exit 0 yes / 1 no / 2 error), ``verify`` (0 valid /
1 invalid), ``gen`` (emit a generated instance).  ``--mode auto`` picks
the specialized tree or cycle solver when it applies and the few-edges
search otherwise; ``few-edges`` forces that search on any graph and
``oracle`` runs the brute-force reference.  Cell enumeration has no
command: call ``efgc.cells.enumerate_sign_conditions`` (see
``demos/arrangement_cells.py``).  ``run`` parses a command's arguments
with that command's own parser.
"""
from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from math import gcd

from efgc.component_lp import (
    solve_cycle,
    solve_tree_gc_bounded_degree,
    solve_tree_vdgc,
)
from efgc.few_edges import solve_few_edges
from efgc.generators import (
    gen_ladder_tw2,
    gen_matching_plus_two,
    gen_star_from_numpart,
    solve_explicit_oracle,
)
from efgc.model import (
    AllZeroAgentError,
    Assignment,
    EdgePiece,
    EfgcError,
    Graph,
    Instance,
    Piece,
    Variant,
    Verdict,
    normal_instance,
    verify_assignment,
)


class ParseError(EfgcError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ValidationError(EfgcError):
    pass


def _content_lines(text: str, header: str) -> list[tuple[int, str]]:
    """The numbered lines after the header line, without comments or blanks."""
    lines = [(n, line) for n, raw in enumerate(text.splitlines(), start=1)
             if (line := raw.split("#", 1)[0].strip())]
    if not lines or lines[0][1] != header:
        raise ParseError(lines[0][0] if lines else 1, f"expected header {header!r}")
    return lines[1:]


def _ratio(token: str, line_no: int) -> tuple[int, int]:
    """A rational token as ints (numerator, denominator > 0): ASCII digits
    ``N`` or ``N/M`` through ``int`` (``'²'.isdigit()``, but ``int`` rejects
    it), any other token as ``fractions.Fraction`` reads it."""
    num, slash, den = token.partition("/")
    try:
        if num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit()):
            n, d = int(num), int(den) if slash else 1
            if d:
                return n, d
        else:
            value = Fraction(token)
            return value.numerator, value.denominator
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(line_no, f"bad rational {token!r}")


def parse_instance(text: str) -> Instance:
    """Parse and fully validate an instance file; each agent's int pairs go
    through ``model.normal_instance`` with no ``Fraction``, building one instance."""
    lines = _content_lines(text, "efgc-instance v1")
    variant = None
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    utilities: dict[str, dict[str, tuple[int, int]]] = {}
    edge_ids: set[str] = set()
    for line_no, line in lines:
        parts = line.split()
        kind = parts[0]
        if kind == "variant":
            if len(parts) != 2 or parts[1] not in ("gc", "vdgc"):
                raise ParseError(line_no, "variant must be 'gc' or 'vdgc'")
            if variant is not None:
                raise ParseError(line_no, "duplicate variant line")
            variant = Variant(parts[1])
        elif kind == "vertices":
            if vertices:
                raise ParseError(line_no, "duplicate vertices line")
            vertices = parts[1:]
            if not vertices:
                raise ParseError(line_no, "vertices line lists no vertices")
        elif kind == "edge":
            if len(parts) != 4:
                raise ParseError(line_no, "edge line needs: edge ID U V")
            eid, u, v = parts[1:]
            if eid in edge_ids:
                raise ParseError(line_no, f"duplicate edge id {eid}")
            edge_ids.add(eid)
            edges.append((eid, u, v))
        elif kind == "agent":
            if len(parts) < 2:
                raise ParseError(line_no, "agent line needs an identifier")
            name = parts[1]
            if name in utilities:
                raise ParseError(line_no, f"duplicate agent {name}")
            row: dict[str, tuple[int, int]] = {}
            for term in parts[2:]:
                if "=" not in term:
                    raise ParseError(line_no, f"expected EDGE=VALUE, got {term!r}")
                edge, _, value = term.rpartition("=")
                if edge not in edge_ids:
                    raise ParseError(line_no, f"unknown edge {edge!r}")
                if edge in row:
                    raise ParseError(line_no, f"duplicate utility for {edge}")
                row[edge] = _ratio(value, line_no)
                if row[edge][0] < 0:
                    raise ParseError(line_no, f"negative utility for {edge}")
            utilities[name] = row
        else:
            raise ParseError(line_no, f"unknown directive {kind!r}")
    if variant is None:
        raise ValidationError("missing variant line")
    if not utilities:
        raise ValidationError("no agents declared")
    try:
        graph = Graph(tuple(vertices), tuple(edges))
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    rows = {a: [row.get(e, (0, 1)) for e in graph.edge_ids] for a, row in utilities.items()}
    try:
        return normal_instance(graph, rows, variant)
    except AllZeroAgentError as exc:
        raise ValidationError(str(exc)) from None


def emit_instance(instance: Instance) -> str:
    out = ["efgc-instance v1", f"variant {instance.variant.value}"]
    out.append("vertices " + " ".join(instance.graph.vertices))
    for eid, u, v in instance.graph.edges:
        out.append(f"edge {eid} {u} {v}")
    for agent in instance.agents:
        terms = " ".join(
            f"{e}={instance.util(agent, e)}" for e in instance.graph.edge_ids
        )
        out.append(f"agent {agent} {terms}".rstrip())
    return "\n".join(out) + "\n"


def _point(x: int, den: int) -> str:
    """x / den in lowest terms, as ``str(Fraction(x, den))`` writes it."""
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def emit_assignment(assignment: Assignment) -> str:
    out = ["efgc-assignment v1"]
    for agent, piece in assignment.items():
        den = piece.den
        for edge, lo, hi, lo_closed, hi_closed in piece.spans:
            out.append(
                f"piece {agent} {edge} {_point(lo, den)} {_point(hi, den)} "
                f"{'closed' if lo_closed else 'open'} {'closed' if hi_closed else 'open'}"
            )
    return "\n".join(out) + "\n"


def parse_assignment(text: str) -> Assignment:
    lines = _content_lines(text, "efgc-assignment v1")
    pieces: dict[str, list[EdgePiece]] = {}
    for line_no, line in lines:
        parts = line.split()
        if len(parts) != 7 or parts[0] != "piece":
            raise ParseError(line_no, "expected: piece AGENT EDGE LO HI closed|open closed|open")
        _, agent, edge, lo, hi, lo_flag, hi_flag = parts
        for flag in (lo_flag, hi_flag):
            if flag not in ("closed", "open"):
                raise ParseError(line_no, f"closure flag must be closed or open, got {flag!r}")
        try:
            ep = EdgePiece(
                edge,
                Fraction(*_ratio(lo, line_no)),
                Fraction(*_ratio(hi, line_no)),
                lo_flag == "closed",
                hi_flag == "closed",
            )
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        pieces.setdefault(agent, []).append(ep)
    return Assignment({agent: Piece(eps) for agent, eps in pieces.items()})


MODES = ("auto", "few-edges", "oracle")


def select_solver(instance: Instance, mode: str):
    """Dispatch per the mode flag: auto sends a tree or a cycle to its
    cut-set solver and any other graph to the few-edges search.  The
    solvers are module globals read at call time, never a table built at
    import, so a wrapper put in their place (``perfbench/tracer.py``) runs."""
    if mode == "auto":
        graph = instance.graph
        if graph.is_tree():
            if instance.variant is Variant.VDGC:
                return solve_tree_vdgc
            return solve_tree_gc_bounded_degree
        if graph.is_cycle():
            return solve_cycle
        return solve_few_edges
    if mode == "few-edges":
        return solve_few_edges
    if mode == "oracle":
        return solve_explicit_oracle
    raise ValueError(f"unknown mode {mode!r}")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write(path: str | None, text: str) -> None:
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _solve_command(args) -> int:
    instance = parse_instance(_read(args.infile))
    verdict: Verdict = select_solver(instance, args.mode)(instance)
    if not verdict.yes:
        print("No")
        return 1
    witness = emit_assignment(verdict.assignment)
    if args.out:  # the file before the verdict: a failed write prints no Yes
        _write(args.out, witness)
        witness = ""
    print("Yes")
    sys.stdout.write(witness)
    return 0


def _verify_command(args) -> int:
    instance = parse_instance(_read(args.infile))
    assignment = parse_assignment(_read(args.assignment))
    report = verify_assignment(instance, assignment)
    if report.valid:
        print("valid")
        return 0
    for failure in report.failures:
        print(f"invalid [{failure.kind}]: {failure.message}")
    return 1


def _gen_command(args) -> int:
    values = [int(tok) for tok in args.values.split(",") if tok]
    if args.family == "star":
        if args.variant not in (None, "gc"):
            raise ValueError("the star family is a shared-vertex (gc) construction")
        instance = gen_star_from_numpart(values)
    elif args.family == "matching2":
        if args.variant not in (None, "vdgc"):
            raise ValueError("the matching2 family is a vertex-disjoint construction")
        instance = gen_matching_plus_two(values)
    else:
        instance = gen_ladder_tw2(values, args.variant or "gc")
    _write(args.out, emit_instance(instance))
    return 0


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser with every command as a subcommand, and each command's own."""
    parser = argparse.ArgumentParser(
        prog="efgc",
        description="exact solvers for envy-free division of graphs with divisible edges",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide an instance file")
    solve.add_argument("--in", dest="infile", required=True, help="path or - for stdin")
    solve.add_argument("--mode", choices=MODES, default="auto")
    solve.add_argument("--out")
    solve.set_defaults(func=_solve_command)

    verify = sub.add_parser("verify", help="check an assignment against an instance")
    verify.add_argument("--in", dest="infile", required=True)
    verify.add_argument("--assignment", required=True)
    verify.set_defaults(func=_verify_command)

    gen = sub.add_parser("gen", help="emit a generated instance")
    gen.add_argument("family", choices=("star", "matching2", "ladder"))
    gen.add_argument("--values", required=True, help="comma-separated integers")
    gen.add_argument("--variant", choices=("gc", "vdgc"))
    gen.add_argument("--out")
    gen.set_defaults(func=_gen_command)
    return parser, sub.choices


def run(argv) -> int:
    """Entry point returning the process exit code (0 yes/valid, 1 no/
    invalid, 2 usage or input error, a failed self-check or any crash)."""
    parser, commands = _parser()
    if argv and argv[0] in commands:  # the command's parser alone
        parser, argv = commands[argv[0]], argv[1:]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
