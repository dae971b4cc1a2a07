"""Small builders and checks that the tests share and the package does not
need.  Unlike ``oracles.py`` they use the package's own types.  The file has
no ``test_`` prefix, so pytest imports it from the test modules but does not
collect it.
"""

import math

import numpy as np

from exclusivity.classical import Behavior, DeterministicStrategy
from exclusivity.quantum import StateVector
from exclusivity.scenario import (
    Event,
    ExclusivityGraph,
    GraphVertex,
    Scenario,
    enumerate_events,
)


def complete_graph(n: int) -> ExclusivityGraph:
    return ExclusivityGraph(
        vertices=tuple(GraphVertex(id=i) for i in range(n)),
        edges=tuple((i, j) for i in range(n) for j in range(i + 1, n)),
    )


def edgeless_graph(n: int) -> ExclusivityGraph:
    return ExclusivityGraph(vertices=tuple(GraphVertex(id=i) for i in range(n)), edges=())


def vertex_by_event(graph: ExclusivityGraph, event: Event) -> GraphVertex:
    for v in graph.vertices:
        if v.event == event:
            return v
    raise KeyError(f"no vertex carries event {event}")


def amplitudes(vec: StateVector) -> np.ndarray:
    """The exact vector's amplitudes as complex floats."""
    return np.array([complex(re, im) for re, im in vec.num]) / math.sqrt(vec.den_sq)


def random_gaussian_vector(rng: np.random.Generator, dim: int) -> StateVector:
    """A random exact unit vector: Gaussian-integer entries in [-9, 9] over
    den_sq = sum |n_k|^2."""
    while True:
        num = [tuple(int(x) for x in rng.integers(-9, 10, 2)) for _ in range(dim)]
        den_sq = sum(re * re + im * im for re, im in num)
        if den_sq:
            return StateVector(num, den_sq)


def behavior_from_strategy(strategy: DeterministicStrategy, scenario: Scenario) -> Behavior:
    """Indicator behavior: exactly one event per context has probability 1."""
    probs = {e: (1 if strategy.occurs(e) else 0) for e in enumerate_events(scenario)}
    return Behavior(scenario=scenario, probabilities=probs)


def assert_isomorphism(graph_a: ExclusivityGraph, graph_b: ExclusivityGraph, mapping: dict):
    """``mapping`` is a bijection of vertex ids that carries the edge set of
    ``graph_a`` onto that of ``graph_b``, checked edge by edge."""
    assert set(mapping) == set(graph_a.vertex_ids())
    assert sorted(mapping.values()) == sorted(graph_b.vertex_ids())
    image = {tuple(sorted((mapping[i], mapping[j]))) for i, j in graph_a.edges}
    assert image == set(graph_b.edges)
