"""Quantum models for exclusivity graphs: states, projectors, Born rule.

State vectors are exact: their entries are Gaussian integers divided by a
common square-root normalizer, like (1,1,0,0)/sqrt(2).  Inner products are
Gaussian integers over sqrt(d1*d2), so squared overlaps and orthogonality
tests are exact rational arithmetic.

The module ships the explicit ququart realization of the CHSH paradox: a
handle state plus eight rank-one projector vectors whose orthogonality graph
is the CHSH exclusivity graph.  Its headline numbers are exact: each positive
vertex carries probability 1/12 (their sum 1/6), the three saturation pairs
each sum to 1, and the total vertex sum is 19/6.

Two-qubit states with local projective measurements are modelled by
``BellLocalModel``: a generic state  a|00> + b e^{i phi_b}|01> +
c e^{i phi_c}|10> + d e^{i phi_d}|11>  with the first measurement of each
party pinned to the computational basis (a harmless local-unitary gauge) and
the second parameterized on the Bloch sphere.  The parameterized kets are the
outcome-0 eigenvectors; outcome 1 projects on their orthogonal complements.
This module is the only one that knows that convention: ``_setting_kets``
tabulates each party's outcome kets (row 2*outcome + setting, with their
angle derivatives) and ``_bell_ket_indices`` maps 2-2-2 events to rows.
``bell_event_probabilities`` reads its probabilities |u^T conj(psi) v|^2
from that table, and the optimizer builds its event amplitudes from it.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import graphs
from .classical import Behavior
from .scenario import (
    Event,
    ExclusivityGraph,
    GraphVertex,
    Scenario,
    atomic_event,
    bell_222,
    bell_event,
    contextual_chsh_scenario,
    enumerate_events,
)

GaussianInt = tuple[int, int]


def _as_gaussian(entry) -> GaussianInt:
    if isinstance(entry, tuple):
        re, im = entry
        return int(re), int(im)
    return int(entry), 0


def _fraction_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a non-negative rational, or None."""
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class StateVector:
    """A vector of Gaussian integers over a common square-root normalizer:
    ``amplitude_k = (num[k].re + i num[k].im) / sqrt(den_sq)``.  Entries
    may be given as ints or (re, im) pairs.
    """

    num: tuple[GaussianInt, ...]
    den_sq: int

    def __post_init__(self):
        if self.den_sq <= 0:
            raise ValueError("den_sq must be positive")
        object.__setattr__(self, "num", tuple(_as_gaussian(e) for e in self.num))

    @property
    def dim(self) -> int:
        return len(self.num)

    def norm_sq(self) -> Fraction:
        return Fraction(sum(re * re + im * im for re, im in self.num), self.den_sq)

    def inner_exact(self, other: "StateVector") -> tuple[GaussianInt, int]:
        """<self|other> as (Gaussian integer, d) meaning (re+i*im)/sqrt(d)."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        re_total = im_total = 0
        for (ar, ai), (br, bi) in zip(self.num, other.num):
            # conj(a) * b
            re_total += ar * br + ai * bi
            im_total += ar * bi - ai * br
        return (re_total, im_total), self.den_sq * other.den_sq

    def inner(self, other: "StateVector") -> complex:
        """<self|other> as a complex float."""
        (re, im), d = self.inner_exact(other)
        return complex(re, im) / math.sqrt(d)

    def inner_is_zero(self, other: "StateVector") -> bool:
        """<self|other> == 0, tested on the Gaussian integer."""
        return self.inner_exact(other)[0] == (0, 0)

    def born(self, other: "StateVector") -> Fraction:
        """|<self|other>|^2."""
        (re, im), d = self.inner_exact(other)
        return Fraction(re * re + im * im, d)


@dataclass(frozen=True)
class SqrtFraction:
    """sign * sqrt(square) with rational square; exact decomposition weights."""

    square: Fraction
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if self.square < 0:
            raise ValueError("square must be non-negative")
        object.__setattr__(self, "square", Fraction(self.square))


# ---------------------------------------------------------------------------
# The explicit CHSH-paradox construction (ququart handle + 8 vectors)

_CONSTRUCTION_HANDLE = ((1, 1, 0, 0), 2)
_CONSTRUCTION_VECTORS: dict[int, tuple[tuple[int, int, int, int], int]] = {
    1: ((0, -1, -2, 1), 6),
    2: ((1, 0, 0, 0), 1),
    3: ((0, 1, 0, 0), 1),
    4: ((0, 2, 1, 1), 6),
    5: ((3, 1, -1, -1), 12),
    6: ((2, 0, 1, -1), 6),
    7: ((1, 3, -1, 1), 12),
    8: ((1, 0, 2, 1), 6),
}

# Vertex -> 2-2-2 event dictionary tying the construction to the CHSH
# expression: an isomorphism of the construction's orthogonality graph onto
# the CHSH event graph with the positive vertices 1 and 8 on the positive
# events (01|00) and (01|10).  A test checks it pair by pair.
CHSH_VERTEX_EVENT_LABELS: dict[int, str] = {
    1: "01|00",
    2: "10|01",
    3: "11|11",
    4: "01|01",
    5: "10|00",
    6: "00|11",
    7: "10|10",
    8: "01|10",
}


def construction_handle() -> StateVector:
    entries, den = _CONSTRUCTION_HANDLE
    return StateVector(entries, den)


def construction_vectors() -> dict[int, StateVector]:
    return {
        i: StateVector(entries, den)
        for i, (entries, den) in sorted(_CONSTRUCTION_VECTORS.items())
    }


def contextual_chsh_graph() -> ExclusivityGraph:
    """Orthogonality graph of the construction vectors, vertices 1..8.

    Vertex ``i`` carries the atomic event (1|Ai) of the eight-measurement
    contextual scenario; edges are the exactly-orthogonal vector pairs.  The
    result is 3-regular with 12 edges and isomorphic to the CHSH event graph.
    """
    vecs = construction_vectors()
    ids = sorted(vecs)
    vertices = tuple(GraphVertex(id=i, event=atomic_event(f"A{i}", 1)) for i in ids)
    edges = tuple(
        (ids[a], ids[b])
        for a in range(len(ids))
        for b in range(a + 1, len(ids))
        if vecs[ids[a]].inner_is_zero(vecs[ids[b]])
    )
    return ExclusivityGraph(vertices=vertices, edges=edges)


@dataclass(frozen=True)
class QuantumContextModel:
    """A graph, one unit vector per vertex, and a handle state.

    Construction validates the orthonormal-representation property: unit
    norms and orthogonality across every edge, exactly.
    """

    graph: ExclusivityGraph
    vertex_vectors: Mapping[int, StateVector]
    handle: StateVector

    def __post_init__(self):
        object.__setattr__(self, "vertex_vectors", dict(self.vertex_vectors))
        dims = {v.dim for v in self.vertex_vectors.values()} | {self.handle.dim}
        if len(dims) != 1:
            raise ValueError("all vectors must share one dimension")
        if self.handle.dim < 2:
            raise ValueError("dimension must be at least 2")
        report = graphs.verify_orthonormal_representation(self.graph, self.representation())
        if not report.valid:
            raise ValueError(f"not an orthonormal representation: {report.to_json()}")

    def representation(self) -> graphs.OrthonormalRepresentation:
        return graphs.OrthonormalRepresentation(vectors=self.vertex_vectors, handle=self.handle)


def chsh_construction() -> QuantumContextModel:
    """The exact ququart model verifying the CHSH paradox (value 1/6)."""
    return QuantumContextModel(
        graph=contextual_chsh_graph(),
        vertex_vectors=construction_vectors(),
        handle=construction_handle(),
    )


def model_vertex_probabilities(model: QuantumContextModel) -> dict[int, Fraction]:
    """p(1|i) = |<v_i|psi>|^2 for every vertex of the model."""
    return {
        vid: vec.born(model.handle)
        for vid, vec in sorted(model.vertex_vectors.items())
    }


def chsh_vertex_event_mapping() -> dict[int, Event]:
    """The frozen vertex -> event dictionary of the construction."""
    return {i: bell_event(s) for i, s in CHSH_VERTEX_EVENT_LABELS.items()}


def contextual_behavior(model: QuantumContextModel) -> Behavior:
    """Behavior over the eight-measurement contextual scenario."""
    scenario = contextual_chsh_scenario()
    probs = {}
    for vid, p in model_vertex_probabilities(model).items():
        probs[atomic_event(f"A{vid}", 1)] = p
        probs[atomic_event(f"A{vid}", 0)] = 1 - p
    return Behavior(scenario=scenario, probabilities=probs)


def construction_bell_behavior() -> Behavior:
    """The 2-2-2 behavior induced by the construction.

    CHSH events inherit the vertex probabilities through the vertex-event
    dictionary, the four paradox zero events get probability 0, and the one
    remaining event of each context absorbs the exact rational remainder.
    The result is no-signaling but, per the local-model impossibility, not
    reachable by two-qubit local measurements.
    """
    from .paradox import chsh_paradox_spec

    scenario = bell_222()
    mapping = chsh_vertex_event_mapping()
    vertex_probs = model_vertex_probabilities(chsh_construction())
    probs: dict[Event, Fraction] = {mapping[i]: p for i, p in vertex_probs.items()}
    for zero in chsh_paradox_spec().zero_events:
        probs[zero] = Fraction(0)
    for ctx in scenario.contexts:
        events = scenario.context_events(ctx)
        free = [e for e in events if e not in probs]
        if len(free) != 1:
            raise RuntimeError(f"context {ctx} should have exactly one free event")
        probs[free[0]] = 1 - sum(probs[e] for e in events if e in probs)
    return Behavior(scenario=scenario, probabilities=probs)


def verify_state_decomposition(
    model: QuantumContextModel,
    vertex_pair: tuple[int, int],
    coefficients: tuple[SqrtFraction, SqrtFraction],
) -> bool:
    """Check  handle = c1 * v_i + c2 * v_j  exactly for a vertex pair.

    Times sqrt(den_psi), the identity reads  psi.num = r1 * v_i.num +
    r2 * v_j.num  with rescaled weights  r = c * sqrt(den_psi / den_v).  With
    Gaussian-integer entries and unit v_i, v_j it can hold only when both
    weights are rational, so an irrational one fails the check.
    """
    i, j = vertex_pair
    if i not in model.vertex_vectors or j not in model.vertex_vectors:
        raise ValueError(f"unknown vertices {vertex_pair}")
    c1, c2 = coefficients
    psi = model.handle
    vi, vj = model.vertex_vectors[i], model.vertex_vectors[j]
    s1 = _fraction_sqrt(c1.square * psi.den_sq / Fraction(vi.den_sq))
    s2 = _fraction_sqrt(c2.square * psi.den_sq / Fraction(vj.den_sq))
    if s1 is None or s2 is None:
        return False
    s1, s2 = c1.sign * s1, c2.sign * s2
    return all(
        pr == s1 * ar + s2 * br and pi_ == s1 * ai + s2 * bi
        for (pr, pi_), (ar, ai), (br, bi) in zip(psi.num, vi.num, vj.num)
    )


def ep_cover_check(events: Iterable[Event], scenario: Scenario) -> bool:
    """True when the events are pairwise exclusive and every deterministic
    strategy makes exactly one of them occur.

    Such a set saturates the exclusivity principle: the associated projectors
    resolve the identity, so any quantum behavior sums to exactly 1 on it.
    Exclusive events occur on disjoint sets of strategies, and event e on
    prod_{m not in e} |O_m| of them, so they cover each strategy exactly once
    iff those counts sum to prod_m |O_m|; no strategy is enumerated.
    """
    from .scenario import are_exclusive

    events = list(events)
    for event in events:
        scenario.check_event(event)
    for a in range(len(events)):
        for b in range(a + 1, len(events)):
            if not are_exclusive(events[a], events[b]):
                return False
    outcomes = {m.id: m.num_outcomes for m in scenario.measurements}
    covered = sum(
        math.prod(k for m, k in outcomes.items() if m not in e.measurement_ids) for e in events
    )
    return covered == math.prod(outcomes.values())


# ---------------------------------------------------------------------------
# Two-qubit states with local measurements


@dataclass(frozen=True)
class BellLocalModel:
    """Generic two-qubit state plus one Bloch-parameterized second setting
    per party; first settings are pinned to the computational basis.

    Amplitudes (a, b, c, d) are non-negative with unit norm; phases ride on
    the |01>, |10>, |11> components.  The parameterized kets are the
    outcome-0 eigenvectors of their measurements.
    """

    a: float
    b: float
    c: float
    d: float
    phi_b: float = 0.0
    phi_c: float = 0.0
    phi_d: float = 0.0
    theta_a1: float = 0.0
    phi_a1: float = 0.0
    theta_b1: float = 0.0
    phi_b1: float = 0.0

    NORM_TOL = 1e-9

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError("amplitudes must be non-negative (phases are separate)")
        norm = self.a**2 + self.b**2 + self.c**2 + self.d**2
        if abs(norm - 1.0) > self.NORM_TOL:
            raise ValueError(f"state norm^2 = {norm}, expected 1")
        for theta in (self.theta_a1, self.theta_b1):
            if not -1e-12 <= theta <= math.pi + 1e-12:
                raise ValueError("polar angles must lie in [0, pi]")
        for phi in (self.phi_b, self.phi_c, self.phi_d, self.phi_a1, self.phi_b1):
            if not -1e-12 <= phi < 2 * math.pi + 1e-12:
                raise ValueError("azimuthal angles must lie in [0, 2*pi)")

    @classmethod
    def from_unconstrained(
        cls,
        amplitudes: Sequence[float],
        phases: Sequence[float],
        theta_a1: float,
        phi_a1: float,
        theta_b1: float,
        phi_b1: float,
    ) -> "BellLocalModel":
        """Build a valid model from arbitrary reals (normalize, wrap angles).

        Negative amplitudes are folded into the phases: a global sign flip
        (probabilities are phase-blind) makes the |00> coefficient
        non-negative, then each remaining sign moves into its phase as pi.
        """
        amps = [float(x) for x in amplitudes]
        ph = [float(p) for p in phases]
        if amps[0] < 0:
            amps = [-x for x in amps]
        for k in (1, 2, 3):
            if amps[k] < 0:
                amps[k] = -amps[k]
                ph[k - 1] += math.pi
        norm = math.sqrt(sum(x * x for x in amps)) or 1.0
        a, b, c, d = (x / norm for x in amps)

        def wrap_polar(theta: float, phi: float) -> tuple[float, float]:
            theta = theta % (2 * math.pi)
            if theta > math.pi:
                theta, phi = 2 * math.pi - theta, phi + math.pi
            return theta, phi % (2 * math.pi)

        ta, pa = wrap_polar(theta_a1, phi_a1)
        tb, pb = wrap_polar(theta_b1, phi_b1)
        pb_, pc_, pd_ = (p % (2 * math.pi) for p in ph)
        return cls(a, b, c, d, pb_, pc_, pd_, ta, pa, tb, pb)

    def state(self) -> np.ndarray:
        """The amplitudes of |00>, |01>, |10>, |11> as a complex array."""
        return np.array(
            [
                self.a,
                self.b * cmath.exp(1j * self.phi_b),
                self.c * cmath.exp(1j * self.phi_c),
                self.d * cmath.exp(1j * self.phi_d),
            ]
        )

    def to_json(self) -> dict:
        return {
            "amplitudes": [self.a, self.b, self.c, self.d],
            "phases": [self.phi_b, self.phi_c, self.phi_d],
            "theta_a1": self.theta_a1,
            "phi_a1": self.phi_a1,
            "theta_b1": self.theta_b1,
            "phi_b1": self.phi_b1,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "BellLocalModel":
        a, b, c, d = data["amplitudes"]
        pb, pc, pd = data["phases"]
        return cls(
            a, b, c, d, pb, pc, pd,
            data["theta_a1"], data["phi_a1"], data["theta_b1"], data["phi_b1"],
        )


def _setting_kets(theta: float, phi: float) -> np.ndarray:
    """Outcome kets of one party and their derivatives, shape (3, 4, 2).

    Layer 0 holds the kets, indexed by 2*outcome + setting; layers 1 and 2
    their derivatives by theta and phi (setting 0 does not depend on them).
    Setting 0 is the computational basis with outcome 1 as -|1>; setting 1
    has outcome-0 ket cos(t/2)|0> + e^{i p} sin(t/2)|1> and outcome-1 ket
    its conj-swapped complement.
    """
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    e = cmath.exp(1j * phi)
    ec = e.conjugate()
    return np.array(
        [
            1, 0, c, s * e, 0, -1, s * ec, -c,
            0, 0, -s / 2, c / 2 * e, 0, 0, c / 2 * ec, s / 2,
            0, 0, 0, 1j * s * e, 0, 0, -1j * s * ec, 0,
        ],
        dtype=complex,
    ).reshape(3, 4, 2)


# (Alice row, Bob row) of ``_setting_kets`` for every 2-2-2 event, keyed by
# the event's sorted assignments
_KET_ROWS = {
    ((f"A{x}", a), (f"B{y}", b)): (2 * a + x, 2 * b + y)
    for a, b, x, y in itertools.product((0, 1), repeat=4)
}


def _bell_ket_indices(events: Sequence[Event]) -> np.ndarray:
    """(Alice ket, Bob ket) rows of ``_setting_kets``, 2*outcome + setting,
    one per event, shape (n_events, 2).

    Only 2-2-2 events are accepted: one A and one B measurement, each with
    setting and outcome 0 or 1.
    """
    rows = []
    for event in events:
        if event.assignments not in _KET_ROWS:
            raise ValueError(f"not a 2-2-2 event: {event}")
        rows.append(_KET_ROWS[event.assignments])
    return np.array(rows, dtype=int).reshape(-1, 2)


def bell_event_probabilities(model: BellLocalModel, events: Sequence[Event]) -> list[float]:
    """P(ab|xy) = |u^T conj(psi) v|^2 for the listed 2-2-2 events, with u and
    v the parties' outcome kets and psi the state as a 2 x 2 matrix."""
    rows = _bell_ket_indices(events)
    u = _setting_kets(model.theta_a1, model.phi_a1)[0, rows[:, 0]]
    v = _setting_kets(model.theta_b1, model.phi_b1)[0, rows[:, 1]]
    psi = model.state().reshape(2, 2).conj()
    amplitudes = np.einsum("ei,ij,ej->e", u, psi, v)
    return [float(p) for p in np.abs(amplitudes) ** 2]


def bell_local_behavior(model: BellLocalModel) -> Behavior:
    """The 16-event behavior of a two-qubit state with local measurements."""
    scenario = bell_222()
    events = enumerate_events(scenario)
    probs = bell_event_probabilities(model, events)
    return Behavior(scenario=scenario, probabilities=dict(zip(events, probs)))
