"""Probability and correlator inequalities on exclusivity graphs.

Every inequality the paper states as a sum of event probabilities is an
event-sum bound  sum_i P(e_i) <= alpha(G)  (CHSH <= 3, KCBS <= 2): an
``InequalitySpec`` holds its events and the classical bound, which
construction cross-checks against the independence number of the events'
graph.  The edge-correlator inequality on the CHSH graph needs no spec; it
uses dichotomic +-1 observables per vertex, and with outcome "0" mapped to
value +1 and outcome "1" to value -1, exclusivity (p(1,1|i,j) = 0 on edges)
gives

    <A_i A_j> = 1 - 2 [p(1|i) + p(1|j)]

per edge, and summing over the 12 edges of the 3-regular CHSH graph yields
the closed form  12 - 6 * sum_i p(1|i),  bounded below by -6 for
noncontextual models (independence number 3).  Any behavior verifying the
contextual paradox pushes the vertex sum above 3 and therefore violates the
bound; the converse fails, and ``tsirelson_counterexample`` exhibits a
maximally CHSH-violating local behavior that satisfies no zero condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from . import graphs
from .classical import Behavior
from .quantum import BellLocalModel, bell_local_behavior
from .scenario import (
    Event,
    ExclusivityGraph,
    chsh_events,
    hardy_pentagon_events,
    graph_from_events,
    number_to_json,
)

Number = Union[int, float, Fraction]

CHSH_CLASSICAL_BOUND = 3
KCBS_CLASSICAL_BOUND = 2
CORRELATOR_NCHV_BOUND = -6


@dataclass(frozen=True)
class InequalitySpec:
    """An event-sum inequality  sum_i P(e_i) <= classical_bound."""

    name: str
    classical_bound: Number
    events: tuple[Event, ...]

    def __post_init__(self):
        if not self.events:
            raise ValueError("event-sum inequality needs events")
        alpha, _ = graphs.independence_number(graph_from_events(list(self.events)))
        if alpha != self.classical_bound:
            raise ValueError(
                f"stated bound {self.classical_bound} != independence number {alpha}"
            )


def chsh_probability_inequality() -> InequalitySpec:
    return InequalitySpec(
        name="chsh-probability",
        classical_bound=CHSH_CLASSICAL_BOUND,
        events=tuple(chsh_events()),
    )


def kcbs_inequality() -> InequalitySpec:
    return InequalitySpec(
        name="kcbs",
        classical_bound=KCBS_CLASSICAL_BOUND,
        events=tuple(hardy_pentagon_events()),
    )


@dataclass(frozen=True)
class InequalityEvaluation:
    name: str
    value: Number
    bound: Number
    violated: bool
    breakdown: tuple[tuple[str, Number], ...]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "value": number_to_json(self.value),
            "value_float": float(self.value),
            "bound": number_to_json(self.bound),
            "direction": "<=",
            "violated": self.violated,
            "breakdown": {label: number_to_json(v) for label, v in self.breakdown},
        }


def evaluate_event_sum(spec: InequalitySpec, behavior: Behavior) -> InequalityEvaluation:
    terms = [(str(e), behavior.probability(e)) for e in spec.events]
    value: Number = sum(v for _, v in terms)
    return InequalityEvaluation(
        name=spec.name,
        value=value,
        bound=spec.classical_bound,
        violated=float(value) > float(spec.classical_bound) + 1e-12,
        breakdown=tuple(terms),
    )


def s_chsh(behavior: Behavior) -> Number:
    """Sum of the eight CHSH event probabilities (classical bound 3)."""
    return sum(behavior.probability(e) for e in chsh_events())


def edge_correlators(
    vertex_probs: Mapping[int, Number], graph: ExclusivityGraph
) -> dict[tuple[int, int], Number]:
    """<A_i A_j> = 1 - 2 [p(1|i) + p(1|j)] for every edge.

    Valid under the exclusivity assumption p(1,1|i,j) = 0 on edges, which
    quantum models satisfy because adjacent projectors are orthogonal.
    """
    missing = [v for v in graph.vertex_ids() if v not in vertex_probs]
    if missing:
        raise ValueError(f"missing vertex probabilities: {missing}")
    return {
        (i, j): 1 - 2 * (vertex_probs[i] + vertex_probs[j]) for i, j in graph.edges
    }


@dataclass(frozen=True)
class CorrelatorInequalityResult:
    """Edge-correlator sum with the noncontextual bound -6.

    ``closed_form_valid`` marks whether the identity
    value = 12 - 6 * sum_i p(1|i) applies (it needs 3-regularity with 12
    edges); for other graphs the raw edge sum is still returned.
    """

    value: Number
    nchv_bound: int
    vertex_sum: Number
    closed_form_valid: bool
    edge_values: tuple[tuple[tuple[int, int], Number], ...]

    @property
    def violated(self) -> bool:
        return float(self.value) < self.nchv_bound - 1e-12

    def to_json(self) -> dict:
        return {
            "value": number_to_json(self.value),
            "value_float": float(self.value),
            "nchv_bound": self.nchv_bound,
            "violated": self.violated,
            "vertex_sum": number_to_json(self.vertex_sum),
            "closed_form_valid": self.closed_form_valid,
            "edges": {f"{i}-{j}": number_to_json(v) for (i, j), v in self.edge_values},
        }


def correlator_inequality_value(
    vertex_probs: Mapping[int, Number], graph: ExclusivityGraph
) -> CorrelatorInequalityResult:
    """Sum of edge correlators with NCHV bound -6 on the CHSH graph."""
    correlators = edge_correlators(vertex_probs, graph)
    value: Number = sum(correlators.values())
    vertex_sum: Number = sum(vertex_probs[v] for v in graph.vertex_ids())
    closed_form_valid = graph.is_regular(3) and len(graph.edges) == 12
    return CorrelatorInequalityResult(
        value=value,
        nchv_bound=CORRELATOR_NCHV_BOUND,
        vertex_sum=vertex_sum,
        closed_form_valid=closed_form_valid,
        edge_values=tuple(sorted(correlators.items())),
    )


def tsirelson_model() -> BellLocalModel:
    """Two-qubit local model attaining the maximal CHSH value 2 + sqrt(2).

    A singlet with the standard optimal angles, rotated into the gauge where
    both first measurements are pinned to the computational basis: the state
    becomes (s, c, -c, s)/sqrt(2) with s = sin(pi/8), c = cos(pi/8), the
    second settings measure +-x.
    """
    s = math.sin(math.pi / 8) / math.sqrt(2)
    c = math.cos(math.pi / 8) / math.sqrt(2)
    return BellLocalModel(
        a=s, b=c, c=c, d=s,
        phi_b=0.0, phi_c=math.pi, phi_d=0.0,
        theta_a1=math.pi / 2, phi_a1=0.0,
        theta_b1=math.pi / 2, phi_b1=math.pi,
    )


def tsirelson_counterexample() -> Behavior:
    """A behavior with S_CHSH = 2 + sqrt(2) > 3 that fails the CHSH paradox.

    Inequality violation does not imply the paradox: all four zero
    conditions evaluate to (2 - sqrt(2))/8 at this point.
    """
    return bell_local_behavior(tsirelson_model())
