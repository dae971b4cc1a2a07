"""Pure-Python oracles that the tests check the library against.

Each one restates a convention or a maximum directly, event by event or
strategy by strategy, without numpy and without importing the code under
test.  The file has no ``test_`` prefix, so pytest imports it from the test
modules but does not collect it.
"""

import cmath
import itertools
import math


def bell_event_indices(event):
    """(a, b, x, y) of a 2-2-2 event with ids A0/A1/B0/B1 (sorted, so Alice's
    assignment comes first)."""
    (alice, a), (bob, b) = event.assignments
    return a, b, int(alice[1:]), int(bob[1:])


def outcome_kets(theta, phi):
    """One party's outcome kets, keyed by (outcome, setting).

    Setting 0 is the computational basis with outcome 1 as -|1>.  The
    outcome-0 ket of setting 1 is cos(t/2)|0> + e^{i p} sin(t/2)|1>; outcome 1
    uses the orthogonal complement (conj-swapped with a sign).
    """
    ket = (math.cos(theta / 2), math.sin(theta / 2) * cmath.exp(1j * phi))
    return {
        (0, 0): (1.0, 0j),
        (1, 0): (0j, -1.0),
        (0, 1): ket,
        (1, 1): (ket[1].conjugate(), -ket[0]),
    }


def bell_probabilities(psi, theta_a1, phi_a1, theta_b1, phi_b1, events):
    """P(ab|xy) of the state psi = (psi_00, psi_01, psi_10, psi_11) for the
    listed 2-2-2 events, with the second settings at the given Bloch angles."""
    c00, c01, c10, c11 = (z.conjugate() for z in psi)
    kets_a = outcome_kets(theta_a1, phi_a1)
    kets_b = outcome_kets(theta_b1, phi_b1)
    out = []
    for a, b, x, y in map(bell_event_indices, events):
        u0, u1 = kets_a[(a, x)]
        v0, v1 = kets_b[(b, y)]
        amp = c00 * u0 * v0 + c01 * u0 * v1 + c10 * u1 * v0 + c11 * u1 * v1
        out.append(abs(amp) ** 2)
    return out


def classical_max(events, scenario, weights=None):
    """Maximum of sum_i w_i P(e_i) over the deterministic strategies of a
    dichotomic scenario, with the first maximizing strategy (measurement id
    -> outcome, canonical order).

    For unit weights this is the independence number of the events'
    exclusivity graph.
    """
    weights = [1] * len(events) if weights is None else list(weights)
    ids = sorted(m.id for m in scenario.measurements)
    best_value, best_strategy = -1, None
    for outcomes in itertools.product((0, 1), repeat=len(ids)):
        strategy = dict(zip(ids, outcomes))
        value = sum(
            w
            for event, w in zip(events, weights)
            if all(strategy[m] == o for m, o in event.assignments)
        )
        if value > best_value:
            best_value, best_strategy = value, strategy
    return best_value, best_strategy


def ep_cover_by_enumeration(events, scenario):
    """True when every deterministic strategy (one outcome per measurement,
    any number of outcomes) makes exactly one of the events occur.

    Two compatible events would occur together under some strategy, so this
    also demands pairwise exclusivity.
    """
    ids = [m.id for m in scenario.measurements]
    ranges = [range(m.num_outcomes) for m in scenario.measurements]
    for outcomes in itertools.product(*ranges):
        strategy = dict(zip(ids, outcomes))
        occurring = sum(
            all(strategy[m] == o for m, o in event.assignments) for event in events
        )
        if occurring != 1:
            return False
    return True
