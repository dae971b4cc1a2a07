"""Deterministic strategies and noncontextual classical behaviors.

A deterministic strategy fixes one outcome per measurement; the behavior it
induces gives probability 1 to exactly one event per context.  Every
classical (noncontextual hidden variable) behavior is a convex mixture of
deterministic ones, so impossibility statements and classical maxima only
need to quantify over the finite deterministic set: for the 2-2-2 scenario
that is the 16 assignments (a0, a1, b0, b1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Optional, Union

from .scenario import (
    Event,
    Scenario,
    Weight,
    event_from_json,
    event_to_json,
    number_from_json,
    number_to_json,
    scenario_from_json,
    scenario_to_json,
)

if TYPE_CHECKING:  # pragma: no cover
    from .paradox import ParadoxSpec

Probability = Union[int, float, Fraction]


class MissingEventError(KeyError):
    """A behavior was queried for an event it does not cover."""


@dataclass(frozen=True)
class DeterministicStrategy:
    """One fixed outcome per measurement id."""

    outcomes: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(sorted(self.outcomes)))
        ids = [m for m, _ in self.outcomes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate measurement id in strategy")
        object.__setattr__(self, "_by_id", dict(self.outcomes))

    def outcome(self, measurement_id: str) -> int:
        return self._by_id[measurement_id]

    def occurs(self, event: Event) -> bool:
        """True when the strategy reproduces every assignment of the event."""
        return all(self.outcome(m) == o for m, o in event.assignments)

    def label(self) -> str:
        """Outcome tuple in measurement-id order, e.g. ``(0,1,1,0)``."""
        return "(" + ",".join(str(o) for _, o in self.outcomes) + ")"

    def __str__(self) -> str:
        return self.label()


@dataclass(frozen=True)
class Behavior:
    """A full probability assignment over a scenario's events.

    Probabilities may be floats or exact Fractions/ints.  Every event must
    lie in a context, and every context must be covered completely and
    normalized within ``NORMALIZATION_TOL``.
    """

    scenario: Scenario
    probabilities: Mapping[Event, Probability]

    NORMALIZATION_TOL = 1e-9

    def __post_init__(self):
        probs = dict(self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        given: dict[tuple[str, ...], list] = {ctx: [] for ctx in self.scenario.contexts}
        for event, p in probs.items():
            self.scenario.check_event(event)
            try:
                in_range = -self.NORMALIZATION_TOL <= float(p) < float("inf")
            except OverflowError:  # an exact number too large for a float
                in_range = False
            if not in_range:
                raise ValueError(f"probability {p} for {event} is negative or not finite")
            if event.measurement_ids not in given:
                raise ValueError(
                    f"event {event} of {event.measurement_ids} is in no context of the scenario"
                )
            given[event.measurement_ids].append(p)
        # a context's events are counted, not enumerated, so checking a
        # behavior costs what it gives, whatever outcome counts it declares
        for ctx, values in given.items():
            counts = [self.scenario.measurement(m).num_outcomes for m in ctx]
            size = math.prod(counts)
            if len(values) < size:
                # every event before the first missing one is given, so none
                # of its outcomes exceeds len(values)
                cut = [range(min(n, len(values) + 1)) for n in counts]
                events = (Event(tuple(zip(ctx, o))) for o in itertools.product(*cut))
                first = next(e for e in events if e not in probs)
                raise MissingEventError(
                    f"behavior misses {size - len(values)} of the {size} events of context "
                    f"{ctx}, the first {first}"
                )
            try:
                total = float(sum(values))
            except OverflowError:  # exact terms beyond a float, in float() or in sum()
                total = math.inf
            if abs(total - 1.0) > self.NORMALIZATION_TOL:
                raise ValueError(f"context {ctx} sums to {total}, expected 1")

    def probability(self, event: Event) -> Probability:
        try:
            return self.probabilities[event]
        except KeyError:
            raise MissingEventError(str(event)) from None

    def marginal(self, measurement_id: str, outcome: int, context: tuple[str, ...]) -> Probability:
        """P(outcome for one measurement), summed within the given context."""
        if measurement_id not in context:
            raise ValueError(f"{measurement_id} not in context {context}")
        total: Probability = 0
        for event in self.scenario.context_events(tuple(context)):
            if event.outcome(measurement_id) == outcome:
                total = total + self.probabilities[event]
        return total

    def is_exact(self) -> bool:
        return all(isinstance(p, (int, Fraction)) for p in self.probabilities.values())


def enumerate_deterministic(scenario: Scenario) -> list[DeterministicStrategy]:
    """All deterministic strategies of a dichotomic scenario, in canonical
    order (measurement ids sorted, outcome tuples lexicographic)."""
    if not scenario.is_dichotomic():
        raise ValueError("deterministic enumeration needs dichotomic measurements")
    ids = sorted(m.id for m in scenario.measurements)
    return [
        DeterministicStrategy(tuple(zip(ids, outcomes)))
        for outcomes in itertools.product((0, 1), repeat=len(ids))
    ]


def classical_paradox_max(
    spec: "ParadoxSpec",
    scenario: Scenario,
) -> tuple[Weight, Optional[DeterministicStrategy]]:
    """Maximum paradox positive-sum over deterministic strategies whose
    behaviors satisfy every zero condition exactly.

    Deterministic probabilities are 0/1 so the zero conditions are enforced
    without tolerance.  By convexity the value bounds all classical mixtures;
    0 here means no classical model verifies the paradox.  Returns the
    attained maximum and a witness strategy (None when no strategy satisfies
    the zeros).
    """
    best_value: Weight = 0
    best_strategy: Optional[DeterministicStrategy] = None
    for strategy in enumerate_deterministic(scenario):
        if any(strategy.occurs(z) for z in spec.zero_events):
            continue
        value: Weight = sum(1 for e in spec.positive_events if strategy.occurs(e))
        if best_strategy is None or value > best_value:
            best_value, best_strategy = value, strategy
    return best_value, best_strategy


# ---------------------------------------------------------------------------
# JSON round-trips


def behavior_to_json(behavior: Behavior) -> dict:
    return {
        "scenario": scenario_to_json(behavior.scenario),
        "probabilities": [
            [event_to_json(e), number_to_json(p)]
            for e, p in sorted(behavior.probabilities.items(), key=lambda kv: kv[0].assignments)
        ],
    }


def behavior_from_json(data: Mapping) -> Behavior:
    return Behavior(
        scenario=scenario_from_json(data["scenario"]),
        probabilities={
            event_from_json(e): number_from_json(p) for e, p in data["probabilities"]
        },
    )
