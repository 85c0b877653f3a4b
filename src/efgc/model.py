"""Core data model for envy-free division of graphs with divisible edges.

Agents divide the edges of a connected graph. Every edge is identified
with the rational interval [0, 1]; a share ("piece") is a collection of
edge intervals that hangs together through shared endpoint vertices.
Two problem variants exist: GC, where several pieces may touch the same
vertex, and VDGC, where every vertex may belong to at most one piece.

All arithmetic is exact.  An instance stores each agent's utilities once,
as ints over one denominator per agent that they sum to (``Instance.ints``
and ``Instance.dens``), set where the instance is built (``normal_instance``);
``Instance.util`` reads one as a ``fractions.Fraction``.
Cut points are Fractions on an ``EdgePiece`` and ints over one
denominator in a ``Piece``'s ``spans``, which is what the solvers build
and the verifier reads: comparing ints over a common denominator is the
same exact rational comparison.  There is no floating point and no
tolerance parameter anywhere.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Container, Iterable, Mapping, Sequence

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class EfgcError(Exception):
    """Base class for errors raised by this package."""


class AllZeroAgentError(EfgcError):
    """An agent values every edge at zero, so its row cannot sum to one."""


class UnknownEdgeError(EfgcError):
    """A piece references an edge that does not exist in the graph."""


class InternalError(EfgcError):
    """A solver's self-check failed: a bug, never a property of the input."""


class Variant(Enum):
    """Problem variant: may pieces of different agents share vertices?"""

    GC = "gc"
    VDGC = "vdgc"


def as_rational(value) -> Fraction:
    """Coerce ints, strings like ``"2/3"`` and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"expected an exact rational, got {value!r}")
    return Fraction(value)


def _check_ids(kind: str, ids: list[str]):
    """Each id must be one token of the instance text: not empty, with no
    whitespace and no ``#`` (which starts a comment).  Joined by spaces,
    such ids split back into themselves."""
    text = " ".join(ids)
    if text.split() != ids or "#" in text:
        bad = next(name for name in ids if name.split() != [name] or "#" in name)
        raise ValueError(f"{kind} id {bad!r} is empty or holds whitespace or '#'")


@dataclass(frozen=True)
class Graph:
    """A connected simple graph with a fixed global vertex ordering.

    ``vertices`` is the ordering: within an edge, coordinate 0 sits at
    the endpoint that appears earlier in this ordering and coordinate 1
    at the later one.  ``edges`` are (edge id, endpoint, endpoint)
    triples; the listing order of the endpoints carries no meaning.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        _check_ids("vertex", list(self.vertices))
        _check_ids("edge", [e[0] for e in self.edges])
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex identifiers")
        if not self.edges:
            raise ValueError("a graph must have at least one edge")
        ids = {e[0] for e in self.edges}
        if len(ids) != len(self.edges):
            raise ValueError("duplicate edge identifiers")
        index = {v: i for i, v in enumerate(self.vertices)}
        seen_pairs = set()
        for eid, u, v in self.edges:
            if u not in index or v not in index:
                raise ValueError(f"edge {eid} references an unknown vertex")
            if u == v:
                raise ValueError(f"edge {eid} is a loop")
            pair = frozenset((u, v))
            if pair in seen_pairs:
                raise ValueError(f"parallel edge {eid}")
            seen_pairs.add(pair)
        if len(set(self.roots(ids).values())) != 1:
            raise ValueError("graph is not connected")

    def roots(self, subset: Container[str]) -> dict[str, str]:
        """Map every vertex to a representative of its connected part in
        the subgraph made of the edges whose ids are in ``subset``."""
        # union-find with path halving: ``parent[x] = x = parent[parent[x]]``
        # hooks x to its grandparent, then steps there
        parent = {v: v for v in self.vertices}
        for eid, u, v in self.edges:
            if eid in subset:
                while parent[u] != u:
                    parent[u] = u = parent[parent[u]]
                while parent[v] != v:
                    parent[v] = v = parent[parent[v]]
                parent[u] = v
        for w in self.vertices:
            r = w
            while parent[r] != r:
                parent[r] = r = parent[parent[r]]
            parent[w] = r
        return parent

    @cached_property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e[0] for e in self.edges)

    @cached_property
    def _coords(self) -> dict[str, tuple[str, str]]:
        """Each edge's vertices at coordinates 0 and 1; worked out once per graph."""
        index = {v: i for i, v in enumerate(self.vertices)}
        return {eid: (u, v) if index[u] < index[v] else (v, u) for eid, u, v in self.edges}

    @cached_property
    def edge_position(self) -> dict[str, int]:
        """Each edge's index in ``edges``; its bit in an edge mask is 1 << index."""
        return {e: i for i, e in enumerate(self.edge_ids)}

    @cached_property
    def end_bits(self) -> dict[str, tuple[int, int]]:
        """Each edge's vertices at coordinates 0 and 1 as masks, bit i for vertex i."""
        bit = {v: 1 << i for i, v in enumerate(self.vertices)}
        return {e: (bit[lo], bit[hi]) for e, (lo, hi) in self._coords.items()}

    @cached_property
    def subtree_masks(self) -> dict[str | None, dict[str, int]]:
        """For a tree or a cycle, keyed by x, None on a tree and each edge on
        a cycle: the tree G - x rooted at the first vertex, each of its edges
        mapped to the mask of the vertices below it (bit i for vertex i).
        Empty for any other graph."""
        if not (self.is_tree() or self.is_cycle()):
            return {}
        adjacent: dict[str, list[tuple[str, str]]] = {v: [] for v in self.vertices}
        for e, u, v in self.edges:
            adjacent[u].append((e, v))
            adjacent[v].append((e, u))
        tables = {}
        for x in (None,) if self.is_tree() else self.edge_ids:
            order = [self.vertices[0]]
            up = {order[0]: None}  # each vertex's edge to its parent, and the parent
            for v in order:  # breadth first: the list grows as it is read
                for e, w in adjacent[v]:
                    if e != x and w not in up:
                        up[w] = e, v
                        order.append(w)
            mask = {v: 1 << i for i, v in enumerate(self.vertices)}
            below = tables[x] = {}
            for w in reversed(order[1:]):
                e, v = up[w]
                below[e] = mask[w]
                mask[v] |= mask[w]
        return tables

    @cached_property
    def subtree_bits(self) -> tuple[tuple[int, int], ...]:
        """On a tree, each edge's ``subtree_masks`` mask paired with its
        bit, 1 << its ``edge_position``; empty for any other graph."""
        if not self.is_tree():
            return ()
        below = self.subtree_masks[None]
        return tuple((below[e], 1 << i) for e, i in self.edge_position.items())

    def coord_vertex(self, edge: str, coord: int) -> str:
        """The vertex sitting at coordinate ``coord`` (0 or 1) of ``edge``."""
        try:
            lo, hi = self._coords[edge]
        except KeyError:
            raise UnknownEdgeError(edge) from None
        return lo if coord == 0 else hi

    def incident_edges(self, vertex: str) -> tuple[str, ...]:
        return tuple(eid for eid, u, v in self.edges if vertex in (u, v))

    def is_tree(self) -> bool:
        return len(self.edges) == len(self.vertices) - 1

    def is_cycle(self) -> bool:
        """Is every vertex of degree 2?  Degrees are counted in one pass."""
        ends = Counter(w for _, u, v in self.edges for w in (u, v))
        return len(self.edges) == len(self.vertices) and set(ends.values()) == {2}


@dataclass(frozen=True)
class Instance:
    """A division problem: a graph, agents, and per-edge utilities.

    Agent a values edge e at ``ints[a, e] / dens[a]``: each agent's
    utilities are non-negative ints over the positive denominator they
    sum to, in lowest terms (the gcd of the ints is 1).  Scaling an agent's
    utilities changes no envy comparison, so this one normal form loses nothing.
    """

    graph: Graph
    agents: tuple[str, ...]
    ints: Mapping[tuple[str, str], int]
    dens: Mapping[str, int]
    variant: Variant

    def __post_init__(self):
        _check_ids("agent", list(self.agents))
        if not self.agents:
            raise ValueError("at least one agent is required")
        if len(set(self.agents)) != len(self.agents):
            raise ValueError("duplicate agent identifiers")
        for a in self.agents:
            row = [self.ints.get((a, e)) for e in self.graph.edge_ids]
            for e, u in zip(self.graph.edge_ids, row):
                if u is None:
                    raise ValueError(f"missing utility for ({a}, {e})")
                if u < 0:
                    raise ValueError(f"negative utility for ({a}, {e})")
            if not self.dens.get(a, 0) > 0:
                raise ValueError(f"denominator of {a} is not positive")
            if gcd(self.dens[a], *row) != 1:
                raise ValueError(f"utilities of {a} are not in lowest terms")
            if sum(row) != self.dens[a]:
                raise ValueError(f"utilities of {a} do not sum to its denominator")

    def util(self, agent: str, edge: str) -> Fraction:
        return Fraction(self.ints[agent, edge], self.dens[agent])

    @cached_property
    def prior_twin(self) -> dict[str, str]:
        """Each agent identical (equal ``ints`` row, which fixes ``dens``,
        their sum) to one before it in ``agents``, mapped to the last such one."""
        last, prior = {}, {}
        for a in self.agents:
            key = tuple([self.ints[a, e] for e in self.graph.edge_ids])
            prior[a], last[key] = last.get(key), a
        return {a: b for a, b in prior.items() if b is not None}


def normal_instance(
    graph: Graph, rows: Mapping[str, Sequence[tuple[int, int]]], variant: Variant
) -> Instance:
    """The instance in which agent a has the (numerator, denominator) pairs
    ``rows[a]``, one per edge in edge order, each row put in the normal
    form in ints: over the lcm of its denominators it is ints s with total
    t, and with g their gcd it becomes s // g over t // g (t = 0 raises
    ``AllZeroAgentError``)."""
    ints: dict[tuple[str, str], int] = {}
    dens: dict[str, int] = {}
    for agent, pairs in rows.items():
        den = lcm(*(d for _, d in pairs))
        scaled = [n * (den // d) for n, d in pairs]
        if not (total := sum(scaled)):
            raise AllZeroAgentError(f"agent {agent} values every edge at zero")
        g = gcd(*scaled)
        dens[agent] = total // g
        ints.update(zip(((agent, e) for e in graph.edge_ids), [u // g for u in scaled]))
    return Instance(graph, tuple(rows), ints, dens, variant)


def build_instance(
    vertices: Sequence[str],
    edges: Sequence[tuple[str, str, str]],
    utilities: Mapping[str, Mapping[str, object]],
    variant: Variant | str = Variant.GC,
) -> Instance:
    """Convenience constructor; missing utilities default to zero.  Each
    agent's values are scaled to sum to one (``normal_instance``); a
    utility on an edge the graph lacks raises ``UnknownEdgeError``."""
    graph = Graph(tuple(vertices), tuple(edges))
    rows: dict[str, list[tuple[int, int]]] = {}
    for agent, per_edge in utilities.items():
        if unknown := set(per_edge).difference(graph.edge_position):
            raise UnknownEdgeError(f"unknown edge {min(unknown)!r} in the utilities of {agent}")
        values = [as_rational(per_edge.get(e, 0)) for e in graph.edge_ids]
        rows[agent] = [(u.numerator, u.denominator) for u in values]
    return normal_instance(graph, rows, Variant(variant))


@dataclass(frozen=True)
class EdgePiece:
    """A sub-interval of one edge, with closure flags at both ends.

    The closure flags record whether the endpoints belong to the
    interval.  A degenerate interval (lo == hi) is a single point and is
    always closed on both sides; it has length zero but still contains
    its point, which lets it claim a vertex or bridge two neighbours.
    """

    edge: str
    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lo", as_rational(self.lo))
        object.__setattr__(self, "hi", as_rational(self.hi))
        if not (ZERO <= self.lo <= self.hi <= ONE):
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("a degenerate interval must be closed on both sides")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo


class Piece:
    """A collection of edge pieces; connected collections form shares.

    Held as sorted ``spans``, each edge piece as (edge, lo, hi, lo_closed,
    hi_closed) with lo and hi ints over ``den``.  The solvers build pieces
    with ``Piece.tiled``; ``edge_pieces`` are made on first use."""

    def __init__(self, edge_pieces: Iterable[EdgePiece] = ()):
        eps = set(edge_pieces)
        self.den = den = lcm(*(x.denominator for ep in eps for x in (ep.lo, ep.hi)))
        self.spans = tuple(sorted(
            (ep.edge, int(ep.lo * den), int(ep.hi * den), ep.lo_closed, ep.hi_closed) for ep in eps
        ))

    @classmethod
    def tiled(cls, den: int, spans: Iterable[tuple]) -> Piece:
        piece = cls.__new__(cls)
        piece.den, piece.spans = den, tuple(sorted(set(spans)))
        return piece

    @cached_property
    def edge_pieces(self) -> tuple[EdgePiece, ...]:
        den = self.den
        return tuple(EdgePiece(edge, Fraction(lo, den), Fraction(hi, den), lo_closed, hi_closed)
                     for edge, lo, hi, lo_closed, hi_closed in self.spans)

    def __eq__(self, other) -> bool:
        return isinstance(other, Piece) and self.edge_pieces == other.edge_pieces

    def __hash__(self) -> int:
        return hash(self.edge_pieces)

    def __repr__(self) -> str:
        return f"Piece({list(self.edge_pieces)!r})"


@dataclass(frozen=True)
class Assignment:
    """A map from agents to pieces, stored sorted by agent id."""

    entries: tuple[tuple[str, Piece], ...]

    def __init__(self, mapping: Mapping[str, Piece] | Iterable[tuple[str, Piece]]):
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        object.__setattr__(self, "entries", tuple(sorted(items)))
        agents = [a for a, _ in self.entries]
        if len(set(agents)) != len(agents):
            raise ValueError("duplicate agent in assignment")

    @property
    def agents(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.entries)

    def items(self) -> tuple[tuple[str, Piece], ...]:
        return self.entries


@dataclass(frozen=True)
class Verdict:
    """Solver outcome: yes with a witness assignment, or no."""

    yes: bool
    assignment: Assignment | None = None


def piece_utility(agent: str, piece: Piece, instance: Instance) -> Fraction:
    """Exact value of a piece: sum of interval length times edge utility.

    Closure flags never matter here; single points have measure zero.
    """
    known, ints = instance.graph._coords, instance.ints
    total = 0
    for edge, lo, hi, _, _ in piece.spans:
        if edge not in known:
            raise UnknownEdgeError(edge)
        total += (hi - lo) * ints[agent, edge]
    return Fraction(total, piece.den * instance.dens[agent])


def _layout(entries: Iterable[tuple[str, Piece]]) -> tuple[int, dict[str, list[tuple]]]:
    """(D, spans by edge): D is the lcm of the pieces' ``den``, and each
    span becomes (owner, lo, hi, lo_closed, hi_closed) over D."""
    den = lcm(*(piece.den for _, piece in entries))
    by_edge: dict[str, list[tuple]] = {}
    for owner, piece in entries:
        k = den // piece.den
        for edge, lo, hi, lo_closed, hi_closed in piece.spans:
            by_edge.setdefault(edge, []).append((owner, lo * k, hi * k, lo_closed, hi_closed))
    return den, by_edge


def _runs(den: int, by_edge: Mapping[str, list[tuple]], graph: Graph) -> dict[str, list]:
    """Each owner's runs, as (edge, the ends of the edge the run contains).

    A run is a maximal chain of one owner's spans on one edge, each
    sharing a point with the ones before it.  Taken in order of start,
    closed starts first, a span shares a point with its run iff it starts
    before the run's reach, or at it with both closed there.
    """
    runs: dict[str, list] = {}
    for edge, spans in by_edge.items():
        ends = graph.coord_vertex(edge, 0), graph.coord_vertex(edge, 1)
        last, reach, shut = None, -1, False
        spans = sorted(spans, key=lambda s: (s[0], s[1], not s[3]))  # closed starts first
        for owner, lo, hi, lo_closed, hi_closed in spans:
            if owner != last or lo > reach or lo == reach and not (lo_closed and shut):
                run = (edge, set())
                runs.setdefault(owner, []).append(run)
                last, reach, shut = owner, hi, hi_closed
            elif hi >= reach:
                reach, shut = hi, hi_closed or hi == reach and shut
            if lo == 0 and lo_closed:
                run[1].add(ends[0])
            if hi == den and hi_closed:
                run[1].add(ends[1])
    return runs


def _joined(runs: list, graph: Graph) -> bool:
    """Do one owner's runs hang together through the vertices they
    contain?  A run that contains both ends of its edge joins them."""
    if len(runs) <= 1 or not all(ends for _, ends in runs):
        return len(runs) <= 1
    root = graph.roots({edge for edge, ends in runs if len(ends) == 2})
    return len({root[v] for _, ends in runs for v in ends}) == 1


def is_connected_piece(piece: Piece, graph: Graph) -> bool:
    """True iff the edge pieces form one connected share of the graph.

    Pieces on the same edge are adjacent when they share a point (where
    one ends and the other starts, only if both are closed there); pieces
    on adjacent edges are adjacent when both contain the coordinate of
    the shared vertex.  Empty and singleton collections count as
    connected.  The rule is ``verify_assignment``'s, on cut points as ints
    over their common denominator; an unknown edge raises ``UnknownEdgeError``.
    """
    den, by_edge = _layout([("", piece)])
    return _joined(_runs(den, by_edge, graph).get("", []), graph)


@dataclass(frozen=True)
class Failure:
    kind: str  # "tiling" | "connectivity" | "vertex-disjointness" | "envy"
    message: str


@dataclass(frozen=True)
class VerificationReport:
    failures: tuple[Failure, ...]

    @property
    def valid(self) -> bool:
        return not self.failures


def _tiling_gaps(spans: list[tuple], den: int) -> list[str]:
    """What is wrong with one edge's tiling: lengths that do not sum to
    D, else overlapping interiors, else each uncovered point in order."""
    total = sum(hi - lo for _, lo, hi, _, _ in spans)
    if total != den:
        return [f"lengths sum to {Fraction(total, den)}, not 1"]
    solid = sorted((lo, hi) for _, lo, hi, _, _ in spans if lo < hi)
    if any(nxt[0] < prev[1] for prev, nxt in zip(solid, solid[1:])):
        return ["interval interiors overlap"]
    # the solid spans now tile [0, D] end to end, so only a cut point can
    # be uncovered, and it is covered iff some span is closed there
    points, closed = {0, den}, set()
    for _, lo, hi, lo_closed, hi_closed in spans:
        points.update((lo, hi))
        closed.update(x for x, shut in ((lo, lo_closed), (hi, hi_closed)) if shut)
    return [f"point {Fraction(x, den)} is uncovered" for x in sorted(points - closed)]


def verify_assignment(instance: Instance, assignment: Assignment) -> VerificationReport:
    """Independently check an assignment; failures are reported, not raised.

    Checks: every edge is tiled exactly (lengths sum to one, interval
    interiors disjoint, every point covered), every agent's piece is
    connected, vertices belong to at most one agent (VDGC only), and no
    agent values another piece above its own.  A piece on an edge that
    the graph does not have is a tiling failure; the checks after tiling
    are then skipped, since they need the edge.

    One pass gathers the pieces' int spans by edge, every cut point over
    the lcm D of their denominators, so each check is int arithmetic
    (a's values over D times a's denominator ``Instance.dens[a]``);
    a ``Fraction`` is built only for a failure message.
    """
    graph = instance.graph
    den, by_edge = _layout(assignment.entries)
    failures: list[Failure] = []
    agents_match = set(assignment.agents) == set(instance.agents)
    if not agents_match:
        failures.append(Failure("tiling", "assignment agents differ from instance agents"))
    for edge in graph.edge_ids if agents_match else ():
        for gap in _tiling_gaps(by_edge.get(edge, []), den):
            failures.append(Failure("tiling", f"edge {edge}: {gap}"))
    unknown = [
        Failure("tiling", f"piece of {agent} lies on unknown edge {edge}")
        for agent, piece in assignment.entries
        for edge, *_ in piece.spans
        if edge not in graph._coords
    ]
    if unknown:
        return VerificationReport(tuple(failures + unknown))
    runs = _runs(den, by_edge, graph)
    for agent in assignment.agents:
        if not _joined(runs.get(agent, []), graph):
            failures.append(Failure("connectivity", f"piece of {agent} is disconnected"))
    if instance.variant is Variant.VDGC:
        owners: dict[str, set[str]] = {}
        for agent, agent_runs in runs.items():
            for v in set().union(*(ends for _, ends in agent_runs)):
                owners.setdefault(v, set()).add(agent)
        for v in graph.vertices:
            if len(owners.get(v, ())) > 1:
                message = f"vertex {v} belongs to pieces of {sorted(owners[v])}"
                failures.append(Failure("vertex-disjointness", message))
    ints, dens = instance.ints, instance.dens
    for a in instance.agents if agents_match else ():
        value = dict.fromkeys(instance.agents, 0)
        for edge, spans in by_edge.items():
            for owner, lo, hi, _, _ in spans:
                value[owner] += (hi - lo) * ints[a, edge]
        over = den * dens[a]
        for b in instance.agents:
            if value[a] < value[b]:
                message = (
                    f"{a} values the piece of {b} at {Fraction(value[b], over)}"
                    f" but its own at {Fraction(value[a], over)}"
                )
                failures.append(Failure("envy", message))
    return VerificationReport(tuple(failures))


def tile_spans(edge: str, segments: Sequence[tuple[object, int]], den: int) -> list[tuple]:
    """Lay out consecutive owner segments across one edge, in ints.

    ``segments`` lists (owner key, length) pairs left to right, lengths
    ints over ``den`` that sum to it.  Consecutive segments with the same
    owner merge.  Closure flags make the tiling exact: coordinate 0
    belongs to the first segment, coordinate 1 to the last, and every
    interior cut point to the segment on its left.  Zero-length segments
    become degenerate points.  Returns (owner, span) pairs, as in ``Piece.spans``.
    """
    total = sum(length for _, length in segments)
    if total != den:
        raise ValueError(f"segment lengths on {edge} sum to {Fraction(total, den)}, not 1")
    merged: list[list] = []
    for owner, length in segments:
        if merged and merged[-1][0] == owner:
            merged[-1][1] += length
        else:
            merged.append([owner, length])
    out = []
    m = len(merged)
    lo = 0
    for j, (owner, length) in enumerate(merged, start=1):
        hi = lo + length
        if not 0 <= lo <= hi <= den:
            raise ValueError(f"invalid interval [{Fraction(lo, den)}, {Fraction(hi, den)}]")
        point = lo == hi
        out.append((owner, (edge, lo, hi, point or j == 1, point or j == m or hi != den)))
        lo = hi
    return out
