"""Measurement scenarios, events, and exclusivity graphs.

An event assigns one outcome to every measurement of a jointly measurable
context, e.g. ``(01|10)`` in a bipartite scenario: Alice measures setting 1
and sees 0, Bob measures setting 0 and sees 1.  Two events are *exclusive*
when they share at least one measurement to which they assign different
outcomes; exclusive events can never co-occur.  The exclusivity graph of an
experiment has every full-context event as a vertex and every exclusive pair
as an edge.  Independence number and Lovasz number of (sub)graphs of this
graph bound the classical and quantum values of event-sum expressions, which
is what makes the construction useful.

Vertex identifiers are stable: events are enumerated context-major (contexts
sorted by their measurement ids) with outcome tuples in lexicographic order,
so JSON artifacts and witness sets are reproducible across runs.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

Weight = Union[int, float, Fraction]


class UnknownVertexError(KeyError):
    """A vertex id was requested that the graph does not contain."""


@dataclass(frozen=True)
class Measurement:
    """A single measurement: opaque id, owning party, number of outcomes."""

    id: str
    party: int
    num_outcomes: int = 2

    def __post_init__(self):
        if self.num_outcomes < 2:
            raise ValueError(f"measurement {self.id!r} needs >= 2 outcomes")
        if self.party < 0:
            raise ValueError("party index must be non-negative")


@dataclass(frozen=True)
class Event:
    """An assignment of outcomes to a set of compatible measurements.

    ``assignments`` is stored sorted by measurement id so that events compare
    and hash by content.
    """

    assignments: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.assignments:
            raise ValueError("event needs at least one assignment")
        ordered = tuple(sorted(self.assignments))
        ids = [m for m, _ in ordered]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate measurement id in event: {ids}")
        object.__setattr__(self, "assignments", ordered)

    @property
    def measurement_ids(self) -> tuple[str, ...]:
        return tuple(m for m, _ in self.assignments)

    def outcome(self, measurement_id: str) -> int:
        for m, o in self.assignments:
            if m == measurement_id:
                return o
        raise KeyError(measurement_id)

    def label(self) -> str:
        """Compact label, ``(ab|xy)`` for bipartite events, generic otherwise."""
        parts = [re.fullmatch(r"([A-Z])(\d+)", m) for m, _ in self.assignments]
        if all(parts) and len({p.group(1) for p in parts}) == len(parts):
            outcomes = "".join(str(o) for _, o in self.assignments)
            settings = "".join(p.group(2) for p in parts)
            return f"({outcomes}|{settings})"
        inner = ",".join(f"{o}|{m}" for m, o in self.assignments)
        return f"({inner})"

    def __str__(self) -> str:
        return self.label()


def bell_event(label: str) -> Event:
    """Build a bipartite event from compact ``"ab|xy"`` notation.

    ``bell_event("01|10")`` is the event where Alice measures A1 and gets 0
    while Bob measures B0 and gets 1.  Surrounding parentheses are accepted.
    """
    m = re.fullmatch(r"\(?(\d+)\|(\d+)\)?", label.strip())
    if not m or len(m.group(1)) != len(m.group(2)):
        raise ValueError(f"cannot parse event label {label!r}")
    outcomes, settings = m.group(1), m.group(2)
    parties = "ABCDEFGH"
    return Event(
        tuple(
            (f"{parties[k]}{settings[k]}", int(outcomes[k]))
            for k in range(len(outcomes))
        )
    )


def atomic_event(measurement_id: str, outcome: int = 1) -> Event:
    """Single-measurement event ``(outcome|measurement)``."""
    return Event(((measurement_id, outcome),))


@dataclass(frozen=True)
class Scenario:
    """A set of measurements plus the contexts that are jointly measurable."""

    parties: int
    measurements: tuple[Measurement, ...]
    contexts: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        ids = [m.id for m in self.measurements]
        if len(set(ids)) != len(ids):
            raise ValueError("measurement ids must be unique")
        by_id = {m.id: m for m in self.measurements}
        if not self.contexts:
            raise ValueError("scenario needs at least one context")
        norm = []
        for ctx in self.contexts:
            if not ctx:
                raise ValueError("contexts must be non-empty")
            for mid in ctx:
                if mid not in by_id:
                    raise ValueError(f"context references unknown measurement {mid!r}")
            parties_in_ctx = [by_id[mid].party for mid in ctx]
            if len(set(parties_in_ctx)) != len(parties_in_ctx) and self.parties > 1:
                raise ValueError("a context may hold at most one measurement per party")
            norm.append(tuple(sorted(ctx)))
        object.__setattr__(self, "contexts", tuple(norm))
        object.__setattr__(self, "_by_id", by_id)

    def measurement(self, measurement_id: str) -> Measurement:
        return self._by_id[measurement_id]

    def context_events(self, ctx: tuple[str, ...]) -> list[Event]:
        """All outcome assignments of one context, outcome-lexicographic."""
        ranges = [range(self.measurement(mid).num_outcomes) for mid in ctx]
        return [
            Event(tuple(zip(ctx, outcomes)))
            for outcomes in itertools.product(*ranges)
        ]

    def check_event(self, event: Event) -> None:
        """Raise when an event references unknown measurements or outcomes."""
        for mid, outcome in event.assignments:
            measurement = self.measurement(mid)  # KeyError on unknown id
            if not 0 <= outcome < measurement.num_outcomes:
                raise ValueError(
                    f"outcome {outcome} out of range for measurement {mid!r}"
                )

    def is_dichotomic(self) -> bool:
        return all(m.num_outcomes == 2 for m in self.measurements)


def bell_scenario(settings: Sequence[int] = (2, 2), outcomes: int = 2) -> Scenario:
    """Bell-type scenario: one measurement per party per context.

    ``settings[k]`` is the number of measurement choices of party ``k``;
    party measurements are labelled ``A0, A1, ..., B0, ...``.  Contexts are
    all cross-party combinations.
    """
    parties = "ABCDEFGH"
    if len(settings) > len(parties):
        raise ValueError("too many parties")
    measurements = tuple(
        Measurement(id=f"{parties[k]}{i}", party=k, num_outcomes=outcomes)
        for k, n in enumerate(settings)
        for i in range(n)
    )
    contexts = tuple(
        tuple(f"{parties[k]}{choice[k]}" for k in range(len(settings)))
        for choice in itertools.product(*[range(n) for n in settings])
    )
    return Scenario(parties=len(settings), measurements=measurements, contexts=contexts)


def bell_222() -> Scenario:
    """Two parties, two dichotomic measurements each: the 2-2-2 scenario."""
    return bell_scenario((2, 2), 2)


def contextual_chsh_scenario() -> Scenario:
    """Eight dichotomic measurements A1..A8, one per vertex of the CHSH graph.

    Exclusivity between distinct measurements is imposed by the graph (their
    projectors are orthogonal), not by shared-measurement bookkeeping, so the
    scenario itself only carries the eight single-measurement contexts.
    """
    measurements = tuple(Measurement(id=f"A{i}", party=0) for i in range(1, 9))
    contexts = tuple((f"A{i}",) for i in range(1, 9))
    return Scenario(parties=1, measurements=measurements, contexts=contexts)


def are_exclusive(e1: Event, e2: Event) -> bool:
    """True when the events assign different outcomes to a shared measurement."""
    other = dict(e2.assignments)
    for mid, outcome in e1.assignments:
        if mid in other and other[mid] != outcome:
            return True
    return False


def enumerate_events(scenario: Scenario) -> list[Event]:
    """All full-context events in canonical order.

    Contexts sorted by measurement ids, outcome tuples lexicographic within
    each context; the list index is the canonical vertex id.
    """
    events = []
    for ctx in sorted(scenario.contexts):
        events.extend(scenario.context_events(ctx))
    return events


@dataclass(frozen=True)
class GraphVertex:
    id: int
    event: Optional[Event] = None
    weight: Weight = 1

    def __post_init__(self):
        if not 0 <= self.weight < float("inf"):
            raise ValueError(f"vertex weights must be finite and non-negative, got {self.weight!r}")


@dataclass(frozen=True)
class ExclusivityGraph:
    """Vertices carrying events (or nothing) plus exclusivity edges.

    Edges are stored as sorted ``(i, j)`` pairs with ``i < j``, the edge list
    itself sorted, so identical graphs serialize identically.
    """

    vertices: tuple[GraphVertex, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ids = [v.id for v in self.vertices]
        if len(set(ids)) != len(ids):
            raise ValueError("vertex ids must be unique")
        idset = set(ids)
        norm = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop on vertex {i}")
            if i not in idset or j not in idset:
                raise UnknownVertexError(f"edge ({i},{j}) references missing vertex")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices, key=lambda v: v.id)))
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        object.__setattr__(self, "_edge_set", frozenset(norm))
        object.__setattr__(self, "_by_id", {v.id: v for v in self.vertices})

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.vertices)

    def vertex(self, vid: int) -> GraphVertex:
        try:
            return self._by_id[vid]
        except KeyError:
            raise UnknownVertexError(vid) from None

    def event_of(self, vid: int) -> Optional[Event]:
        return self.vertex(vid).event

    def vertex_by_event(self, event: Event) -> GraphVertex:
        for v in self.vertices:
            if v.event == event:
                return v
        raise KeyError(f"no vertex carries event {event}")

    def adjacency(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v.id: set() for v in self.vertices}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return {k: frozenset(s) for k, s in adj.items()}

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self._edge_set

    def degrees(self) -> dict[int, int]:
        return {vid: len(nbrs) for vid, nbrs in self.adjacency().items()}

    def is_regular(self, degree: int) -> bool:
        return all(d == degree for d in self.degrees().values())


def graph_from_events(events: Sequence[Event]) -> ExclusivityGraph:
    """Graph on the given events, vertex ``k`` carrying ``events[k]`` with
    unit weight, with edges from the exclusivity predicate."""
    vertices = tuple(GraphVertex(id=k, event=e) for k, e in enumerate(events))
    edges = tuple(
        (a, b)
        for a in range(len(events))
        for b in range(a + 1, len(events))
        if are_exclusive(events[a], events[b])
    )
    return ExclusivityGraph(vertices=vertices, edges=edges)


def build_exclusivity_graph(scenario: Scenario) -> ExclusivityGraph:
    """Exclusivity graph of the experiment: all full-context events."""
    return graph_from_events(enumerate_events(scenario))


def subgraph(graph: ExclusivityGraph, vertex_ids: Iterable[int]) -> ExclusivityGraph:
    """Induced subgraph on ``vertex_ids``; original ids are kept."""
    keep = set(vertex_ids)
    have = set(graph.vertex_ids())
    missing = keep - have
    if missing:
        raise UnknownVertexError(f"unknown vertex ids: {sorted(missing)}")
    vertices = tuple(v for v in graph.vertices if v.id in keep)
    edges = tuple((i, j) for i, j in graph.edges if i in keep and j in keep)
    return ExclusivityGraph(vertices=vertices, edges=edges)


# The eight events of the CHSH expression S = sum P(e_i) <= 3 in the 2-2-2
# scenario, and the five events left over from the Hardy argument (they
# induce a pentagon).
CHSH_EVENT_LABELS = (
    "01|00", "10|00", "01|01", "10|01", "01|10", "10|10", "00|11", "11|11",
)
PENTAGON_EVENT_LABELS = ("10|01", "01|11", "10|11", "01|10", "00|00")


def chsh_events() -> list[Event]:
    return [bell_event(s) for s in CHSH_EVENT_LABELS]


def hardy_pentagon_events() -> list[Event]:
    """The five 2-2-2 events that survive the Hardy conditions."""
    return [bell_event(s) for s in PENTAGON_EVENT_LABELS]


def chsh_event_graph() -> ExclusivityGraph:
    """Induced subgraph of the 2-2-2 graph on the eight CHSH events.

    3-regular with 12 edges; two overlapping pentagons cover all vertices.
    """
    graph = build_exclusivity_graph(bell_222())
    wanted = set(chsh_events())
    ids = [v.id for v in graph.vertices if v.event in wanted]
    return subgraph(graph, ids)


def pentagon_event_graph() -> ExclusivityGraph:
    """Induced pentagon on the five Hardy events of the 2-2-2 graph."""
    graph = build_exclusivity_graph(bell_222())
    wanted = set(hardy_pentagon_events())
    ids = [v.id for v in graph.vertices if v.event in wanted]
    return subgraph(graph, ids)


# ---------------------------------------------------------------------------
# JSON round-trips


def number_to_json(w: Weight):
    """An exact number for JSON: a ``Fraction`` as its string, others as is."""
    if isinstance(w, Fraction):
        return str(w)
    return w


def number_from_json(w) -> Weight:
    """Inverse of ``number_to_json``; ``ValueError`` unless ``w`` is a JSON
    number or a ``Fraction`` string, finite as a float."""
    if isinstance(w, bool) or not isinstance(w, (int, float, str)):
        raise ValueError(f"expected a number, got {w!r}")
    try:
        value = Fraction(w) if isinstance(w, str) else w
        if math.isfinite(value):
            return value
    except (ZeroDivisionError, OverflowError):
        pass
    raise ValueError(f"{w!r} is not a finite number")


def _int_from_json(value) -> int:
    """A JSON integer; floats and booleans raise ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def event_to_json(event: Event) -> list:
    return [[m, o] for m, o in event.assignments]


def event_from_json(data) -> Event:
    return Event(tuple((str(m), _int_from_json(o)) for m, o in data))


def graph_to_json(graph: ExclusivityGraph) -> dict:
    return {
        "vertices": [
            {
                "id": v.id,
                "event": event_to_json(v.event) if v.event is not None else None,
                "weight": number_to_json(v.weight),
            }
            for v in graph.vertices
        ],
        "edges": [list(e) for e in graph.edges],
    }


def graph_from_json(data: Mapping) -> ExclusivityGraph:
    vertices = tuple(
        GraphVertex(
            id=_int_from_json(v["id"]),
            event=event_from_json(v["event"]) if v.get("event") is not None else None,
            weight=number_from_json(v.get("weight", 1)),
        )
        for v in data["vertices"]
    )
    edges = tuple((_int_from_json(i), _int_from_json(j)) for i, j in data["edges"])
    return ExclusivityGraph(vertices=vertices, edges=edges)


def scenario_to_json(scenario: Scenario) -> dict:
    return {
        "parties": scenario.parties,
        "measurements": [
            {"id": m.id, "party": m.party, "num_outcomes": m.num_outcomes}
            for m in scenario.measurements
        ],
        "contexts": [list(ctx) for ctx in scenario.contexts],
    }


def scenario_from_json(data: Mapping) -> Scenario:
    return Scenario(
        parties=_int_from_json(data["parties"]),
        measurements=tuple(
            Measurement(
                id=str(m["id"]), party=_int_from_json(m["party"]),
                num_outcomes=_int_from_json(m.get("num_outcomes", 2)),
            )
            for m in data["measurements"]
        ),
        contexts=tuple(tuple(ctx) for ctx in data["contexts"]),
    )
