"""Machine-checkable logical paradoxes and behavior verification.

A paradox specification has three parts: events whose probabilities must
vanish, events whose probability sum must be strictly positive, and
saturation sets whose probabilities must each sum to exactly 1.  The
saturation sets arise from exclusivity-principle covers (four mutually
exclusive events covering all outcomes of the 2-2-2 scenario) after the zero
conditions remove some members; the builders perform that reduction
explicitly, so each shipped specification documents its own derivation.

Verification takes any behavior (classical, quantum, or raw numbers from a
file) and reports every residual.  Strict positivity is implemented as
``p_hardy > tol``: the defining inequality is strict, numeric behaviors need
a threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence, Union

from .classical import Behavior
from .quantum import contextual_chsh_graph, ep_cover_check
from .scenario import (
    Event,
    Scenario,
    atomic_event,
    bell_222,
    bell_event,
    contextual_chsh_scenario,
)

Number = Union[int, float, Fraction]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class SaturationReduction:
    """A full exclusivity cover, the zero events dropped, and what remains."""

    full: tuple[Event, ...]
    removed: tuple[Event, ...]
    reduced: tuple[Event, ...]


def reduce_saturation_sets(
    full_sets: Sequence[Sequence[Event]],
    zeros: Sequence[Event],
    scenario: Scenario,
) -> list[SaturationReduction]:
    """Drop zero-condition events from full exclusivity covers.

    Each input set must pass ``ep_cover_check`` (mutually exclusive and
    covering), so its probabilities sum to exactly 1 for any quantum
    behavior; removing events forced to probability zero preserves the sum.
    """
    zero_set = set(zeros)
    reductions = []
    for full in full_sets:
        full = tuple(full)
        if not ep_cover_check(full, scenario):
            raise ValueError(
                f"saturation source {[str(e) for e in full]} is not an exclusivity cover"
            )
        removed = tuple(e for e in full if e in zero_set)
        reduced = tuple(e for e in full if e not in zero_set)
        reductions.append(SaturationReduction(full=full, removed=removed, reduced=reduced))
    return reductions


@dataclass(frozen=True)
class ParadoxSpec:
    """Zero conditions, a positive sum, and unit saturation sums."""

    name: str
    scenario: Scenario
    zero_events: tuple[Event, ...]
    positive_events: tuple[Event, ...]
    saturation_sets: tuple[tuple[Event, ...], ...]


def _validate_bell_saturations(spec: ParadoxSpec) -> None:
    # every saturation set must extend to an exclusivity cover using only
    # the spec's own zero events
    zeros = list(spec.zero_events)
    for sat in spec.saturation_sets:
        if not any(
            ep_cover_check(tuple(sat) + subset, spec.scenario)
            for r in range(len(zeros) + 1)
            for subset in combinations(zeros, r)
        ):
            raise ValueError(
                f"saturation set {[str(e) for e in sat]} has no exclusivity cover"
            )


def hardy_spec() -> ParadoxSpec:
    """The two-qubit logical paradox: P(00|00) > 0 under three zeros.

    The saturation pairs are derived on the fly from the two four-event
    exclusivity covers of the B1 and A1 measurement directions.
    """
    scenario = bell_222()
    zeros = (bell_event("00|01"), bell_event("00|10"), bell_event("11|11"))
    full_sets = (
        tuple(bell_event(s) for s in ("00|01", "10|01", "01|11", "11|11")),
        tuple(bell_event(s) for s in ("01|10", "00|10", "11|11", "10|11")),
    )
    reductions = reduce_saturation_sets(full_sets, zeros, scenario)
    spec = ParadoxSpec(
        name="hardy",
        scenario=scenario,
        zero_events=zeros,
        positive_events=(bell_event("00|00"),),
        saturation_sets=tuple(r.reduced for r in reductions),
    )
    _validate_bell_saturations(spec)
    return spec


def chsh_paradox_spec() -> ParadoxSpec:
    """Two overlapping pentagon paradoxes assembled on the CHSH events.

    Positive pair (01|00), (01|10); four zeros; three saturation pairs
    derived from the three exclusivity covers that tile all sixteen events.
    The third cover uses (10|10): it is the only completion of
    {(11|10), (01|11), (00|11)} that keeps the four events mutually
    exclusive and covering.
    """
    scenario = bell_222()
    zeros = tuple(bell_event(s) for s in ("11|00", "00|01", "11|10", "01|11"))
    full_sets = (
        tuple(bell_event(s) for s in ("11|00", "00|01", "10|00", "01|01")),
        tuple(bell_event(s) for s in ("00|01", "01|11", "10|01", "11|11")),
        tuple(bell_event(s) for s in ("11|10", "01|11", "00|11", "10|10")),
    )
    reductions = reduce_saturation_sets(full_sets, zeros, scenario)
    spec = ParadoxSpec(
        name="chsh",
        scenario=scenario,
        zero_events=zeros,
        positive_events=(bell_event("01|00"), bell_event("01|10")),
        saturation_sets=tuple(r.reduced for r in reductions),
    )
    _validate_bell_saturations(spec)
    return spec


def contextual_chsh_paradox_spec() -> ParadoxSpec:
    """The paradox restated over eight atomic measurements A1..A8.

    Exclusivity here is carried by the graph (orthogonal projectors), not by
    shared measurements, so the saturation pairs are validated as edges of
    the contextual CHSH graph instead of as deterministic covers.  The zero
    conditions are absorbed into the saturations.
    """
    scenario = contextual_chsh_scenario()
    saturations = tuple(
        (atomic_event(f"A{i}", 1), atomic_event(f"A{j}", 1))
        for i, j in ((2, 3), (4, 5), (6, 7))
    )
    graph = contextual_chsh_graph()
    for (e1, e2) in saturations:
        i = int(e1.measurement_ids[0][1:])
        j = int(e2.measurement_ids[0][1:])
        if not graph.has_edge(i, j):
            raise ValueError(f"saturation pair ({i},{j}) is not an exclusive edge")
    return ParadoxSpec(
        name="chsh-contextual",
        scenario=scenario,
        zero_events=(),
        positive_events=(atomic_event("A1", 1), atomic_event("A8", 1)),
        saturation_sets=saturations,
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
