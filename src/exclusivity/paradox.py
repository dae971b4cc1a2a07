"""Machine-checkable logical paradoxes and behavior verification.

A paradox specification has three parts: events whose probabilities must
vanish, events whose probability sum must be strictly positive, and
saturation sets whose probabilities must each sum to exactly 1.  The
saturation sets arise from exclusivity-principle covers (four mutually
exclusive events covering all outcomes of the 2-2-2 scenario) after the zero
conditions remove some members.  The Bell builders list their covers and
reduce them once, checking each cover with ``ep_cover_check``; a reduced set
plus the zeros it lost is that cover, so this one check proves it.

Verification takes any behavior (classical, quantum, or raw numbers from a
file) and reports every residual.  Strict positivity is implemented as
``p_hardy > tol``: the defining inequality is strict, numeric behaviors need
a threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .classical import Behavior
from .quantum import contextual_chsh_graph, ep_cover_check
from .scenario import Event, Scenario, atomic_event, bell_222, bell_event

Number = Union[int, float, Fraction]

DEFAULT_TOL = 1e-9


def reduce_saturation_sets(
    full_sets: Sequence[Sequence[Event]],
    zeros: Sequence[Event],
    scenario: Scenario,
) -> tuple[tuple[Event, ...], ...]:
    """Drop zero-condition events from full exclusivity covers.

    Each input set must pass ``ep_cover_check`` (mutually exclusive and
    covering), so its probabilities sum to exactly 1 for any quantum
    behavior; removing events forced to probability zero preserves the sum.
    """
    zero_set = set(zeros)
    reduced = []
    for full in full_sets:
        full = tuple(full)
        if not ep_cover_check(full, scenario):
            raise ValueError(
                f"saturation source {[str(e) for e in full]} is not an exclusivity cover"
            )
        reduced.append(tuple(e for e in full if e not in zero_set))
    return tuple(reduced)


@dataclass(frozen=True)
class ParadoxSpec:
    """Zero conditions, a positive sum, and unit saturation sums."""

    zero_events: tuple[Event, ...]
    positive_events: tuple[Event, ...]
    saturation_sets: tuple[tuple[Event, ...], ...]


def _bell_spec(
    zeros: Sequence[str], positives: Sequence[str], covers: Sequence[Sequence[str]]
) -> ParadoxSpec:
    """A 2-2-2 spec from event labels: each saturation set is one
    exclusivity cover less the zero events."""
    zero_events = tuple(map(bell_event, zeros))
    return ParadoxSpec(
        zero_events=zero_events,
        positive_events=tuple(map(bell_event, positives)),
        saturation_sets=reduce_saturation_sets(
            [tuple(map(bell_event, cover)) for cover in covers], zero_events, bell_222()
        ),
    )


def hardy_spec() -> ParadoxSpec:
    """The two-qubit logical paradox: P(00|00) > 0 under three zeros.

    The saturation pairs are derived from the two four-event exclusivity
    covers of the B1 and A1 measurement directions.
    """
    return _bell_spec(
        zeros=("00|01", "00|10", "11|11"),
        positives=("00|00",),
        covers=(("00|01", "10|01", "01|11", "11|11"), ("01|10", "00|10", "11|11", "10|11")),
    )


def chsh_paradox_spec() -> ParadoxSpec:
    """Two overlapping pentagon paradoxes assembled on the CHSH events.

    Positive pair (01|00), (01|10); four zeros; three saturation pairs
    derived from the three exclusivity covers that tile all sixteen events.
    The third cover uses (10|10): it is the only completion of
    {(11|10), (01|11), (00|11)} that keeps the four events mutually
    exclusive and covering.
    """
    return _bell_spec(
        zeros=("11|00", "00|01", "11|10", "01|11"),
        positives=("01|00", "01|10"),
        covers=(
            ("11|00", "00|01", "10|00", "01|01"),
            ("00|01", "01|11", "10|01", "11|11"),
            ("11|10", "01|11", "00|11", "10|10"),
        ),
    )


def contextual_chsh_paradox_spec() -> ParadoxSpec:
    """The paradox restated over eight atomic measurements A1..A8.

    Exclusivity here is carried by the graph (orthogonal projectors), not by
    shared measurements, so the saturation pairs are validated as edges of
    the contextual CHSH graph instead of as deterministic covers.  The zero
    conditions are absorbed into the saturations.
    """
    pairs = ((2, 3), (4, 5), (6, 7))
    graph = contextual_chsh_graph()
    for i, j in pairs:
        if not graph.has_edge(i, j):
            raise ValueError(f"saturation pair ({i},{j}) is not an exclusive edge")
    return ParadoxSpec(
        zero_events=(),
        positive_events=(atomic_event("A1", 1), atomic_event("A8", 1)),
        saturation_sets=tuple(
            (atomic_event(f"A{i}", 1), atomic_event(f"A{j}", 1)) for i, j in pairs
        ),
    )


BUILTIN_SPECS = {
    "hardy": hardy_spec,
    "chsh": chsh_paradox_spec,
    "chsh-contextual": contextual_chsh_paradox_spec,
}


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a behavior against a paradox specification."""

    verified: bool
    p_hardy: Number
    zero_residuals: tuple[tuple[str, Number], ...]
    saturation_residuals: tuple[Number, ...]
    tolerance: float

    def to_json(self) -> dict:
        def num(x):
            return str(x) if isinstance(x, Fraction) else float(x)

        return {
            "verified": self.verified,
            "p_hardy": num(self.p_hardy),
            "p_hardy_float": float(self.p_hardy),
            "zero_residuals": {label: num(r) for label, r in self.zero_residuals},
            "saturation_residuals": [num(r) for r in self.saturation_residuals],
            "tolerance": self.tolerance,
        }


def verify(behavior: Behavior, spec: ParadoxSpec, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check zeros, saturations, and strict positivity of a behavior.

    verified  <=>  every zero residual <= tol, every |saturation - 1| <= tol,
    and p_hardy > tol.  Exact behaviors keep exact residuals in the report.
    ``tol`` must be finite and non-negative; 0 asks exact behaviors for
    exact zeros and saturations.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    zero_residuals = tuple(
        (str(z), behavior.probability(z)) for z in spec.zero_events
    )
    saturation_residuals = tuple(
        abs(sum(behavior.probability(e) for e in sat) - 1) for sat in spec.saturation_sets
    )
    p_hardy: Number = sum(behavior.probability(e) for e in spec.positive_events)
    verified = (
        all(float(r) <= tol for _, r in zero_residuals)
        and all(float(r) <= tol for r in saturation_residuals)
        and float(p_hardy) > tol
    )
    return VerificationReport(
        verified=verified,
        p_hardy=p_hardy,
        zero_residuals=zero_residuals,
        saturation_residuals=saturation_residuals,
        tolerance=tol,
    )
