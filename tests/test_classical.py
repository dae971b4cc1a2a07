from fractions import Fraction

import numpy as np
import pytest

from exclusivity import graphs, paradox, quantum, scenario
from exclusivity.classical import (
    Behavior,
    DeterministicStrategy,
    MissingEventError,
    behavior_from_json,
    behavior_from_strategy,
    behavior_to_json,
    classical_paradox_max,
    enumerate_deterministic,
)
from exclusivity.scenario import Measurement, Scenario, bell_event, chsh_events, hardy_pentagon_events
from oracles import classical_max


class TestEnumeration:
    def test_222_has_16_strategies(self, bell222):
        assert len(enumerate_deterministic(bell222)) == 16

    def test_single_measurement(self):
        s = Scenario(
            parties=1, measurements=(Measurement("M0", 0),), contexts=(("M0",),)
        )
        assert len(enumerate_deterministic(s)) == 2

    def test_canonical_order(self, bell222):
        strategies = enumerate_deterministic(bell222)
        assert strategies[0].label() == "(0,0,0,0)"
        assert strategies[1].label() == "(0,0,0,1)"
        assert strategies[15].label() == "(1,1,1,1)"

    def test_non_dichotomic_rejected(self):
        s = Scenario(
            parties=1,
            measurements=(Measurement("M0", 0, num_outcomes=3),),
            contexts=(("M0",),),
        )
        with pytest.raises(ValueError):
            enumerate_deterministic(s)


class TestBehaviorFromStrategy:
    def test_all_zero_strategy(self, bell222):
        strategy = enumerate_deterministic(bell222)[0]
        behavior = behavior_from_strategy(strategy, bell222)
        for label in ("00|00", "00|01", "00|10", "00|11"):
            assert behavior.probability(bell_event(label)) == 1

    def test_one_event_per_context(self, bell222):
        for strategy in enumerate_deterministic(bell222):
            behavior = behavior_from_strategy(strategy, bell222)
            for ctx in bell222.contexts:
                hits = [
                    e for e in bell222.context_events(ctx) if behavior.probability(e) == 1
                ]
                assert len(hits) == 1

    def test_spot_checks(self, bell222):
        strategy = DeterministicStrategy((("A0", 1), ("A1", 0), ("B0", 1), ("B1", 0)))
        behavior = behavior_from_strategy(strategy, bell222)
        assert behavior.probability(bell_event("11|00")) == 1
        assert behavior.probability(bell_event("10|01")) == 1
        assert behavior.probability(bell_event("00|10")) == 0
        assert behavior.probability(bell_event("00|11")) == 1
        assert behavior.probability(bell_event("11|11")) == 0


class TestClassicalMax:
    def test_chsh_events(self, bell222):
        value, witness = classical_max(chsh_events(), bell222)
        assert value == 3
        assert witness is not None

    def test_pentagon_events(self, bell222):
        value, _ = classical_max(hardy_pentagon_events(), bell222)
        assert value == 2

    def test_single_event(self, bell222):
        value, _ = classical_max([bell_event("00|00")], bell222)
        assert value == 1

    def test_weighted(self, bell222):
        value, _ = classical_max(
            [bell_event("00|00"), bell_event("11|00")], bell222, weights=[Fraction(1, 2), 2]
        )
        assert value == 2

    def test_matches_independence_number(self, bell222, graph222):
        rng = np.random.default_rng(3)
        events = scenario.enumerate_events(bell222)
        for _ in range(15):
            k = int(rng.integers(2, 9))
            subset = [events[i] for i in rng.choice(16, size=k, replace=False)]
            value, _ = classical_max(subset, bell222)
            sub = scenario.subgraph(
                graph222, [graph222.vertex_by_event(e).id for e in subset]
            )
            alpha, _ = graphs.independence_number(sub)
            assert value == alpha


class TestParadoxMax:
    def test_hardy_is_classically_impossible(self, bell222):
        value, witness = classical_paradox_max(paradox.hardy_spec(), bell222)
        assert value == 0
        assert witness is not None  # the zero conditions are satisfiable

    def test_chsh_paradox_is_classically_impossible(self, bell222):
        value, _ = classical_paradox_max(paradox.chsh_paradox_spec(), bell222)
        assert value == 0

    def test_unconstrained_positive_event(self, bell222):
        spec = paradox.ParadoxSpec(
            zero_events=(),
            positive_events=(bell_event("00|00"),),
            saturation_sets=(),
        )
        value, witness = classical_paradox_max(spec, bell222)
        assert value == 1
        assert witness.occurs(bell_event("00|00"))

    def test_saturations_implied_by_zeros(self, bell222):
        # any strategy obeying the four zero conditions saturates all three
        # reduced sums exactly
        spec = paradox.chsh_paradox_spec()
        survivors = [
            s
            for s in enumerate_deterministic(bell222)
            if not any(s.occurs(z) for z in spec.zero_events)
        ]
        assert survivors
        for strategy in survivors:
            behavior = behavior_from_strategy(strategy, bell222)
            for sat in spec.saturation_sets:
                assert sum(behavior.probability(e) for e in sat) == 1

    def test_contextual_paradox_classically_impossible(self):
        # deterministic vertex assignments: independent-set indicators on the
        # contextual graph; saturation pairs must sum to 1
        graph = quantum.contextual_chsh_graph()
        adj = graph.adjacency()
        best = 0
        for mask in range(2 ** 8):
            p = {i + 1: (mask >> i) & 1 for i in range(8)}
            if any(p[i] and p[j] for i, j in graph.edges):
                continue
            if any(p[i] + p[j] != 1 for i, j in ((2, 3), (4, 5), (6, 7))):
                continue
            best = max(best, p[1] + p[8])
        assert best == 0


class TestBehaviorValidation:
    def test_negative_probability_rejected(self, bell222):
        events = scenario.enumerate_events(bell222)
        probs = {e: 0.25 for e in events}
        probs[events[0]] = -0.1
        probs[events[1]] = 0.6
        with pytest.raises(ValueError):
            Behavior(scenario=bell222, probabilities=probs)

    def test_unnormalized_rejected(self, bell222):
        probs = {e: 0.3 for e in scenario.enumerate_events(bell222)}
        with pytest.raises(ValueError):
            Behavior(scenario=bell222, probabilities=probs)

    def test_nan_probability_rejected(self, bell222):
        # abs(nan - 1) > tol is False, so normalization alone lets NaN through
        probs = {e: 0.25 for e in scenario.enumerate_events(bell222)}
        probs[next(iter(probs))] = float("nan")
        with pytest.raises(ValueError):
            Behavior(scenario=bell222, probabilities=probs)

    @pytest.mark.parametrize("huge", [Fraction(10**400), Fraction(-(10**400)), 10**400])
    def test_probability_too_large_for_a_float_rejected(self, bell222, huge):
        # float(p) overflowed here before the range check could raise
        probs = {e: 0.25 for e in scenario.enumerate_events(bell222)}
        probs[next(iter(probs))] = huge
        with pytest.raises(ValueError, match="negative or not finite"):
            Behavior(scenario=bell222, probabilities=probs)

    @pytest.mark.parametrize("second", [Fraction(10**308), 10**308])
    def test_context_sum_too_large_for_a_float_rejected(self, bell222, second):
        # each term fits a float, but their exact sum, or that sum plus the
        # context's float terms, overflows
        probs = {e: 0.25 for e in scenario.enumerate_events(bell222)}
        first, other = bell222.context_events(bell222.contexts[0])[:2]
        probs[first], probs[other] = Fraction(10**308), second
        with pytest.raises(ValueError, match="sums to inf"):
            Behavior(scenario=bell222, probabilities=probs)

    def test_missing_event_rejected(self, bell222):
        events = scenario.enumerate_events(bell222)
        probs = {e: 0.25 for e in events[:-1]}
        with pytest.raises(MissingEventError):
            Behavior(scenario=bell222, probabilities=probs)

    def test_probability_lookup_error(self, bell222):
        behavior = behavior_from_strategy(
            enumerate_deterministic(bell222)[0], bell222
        )
        with pytest.raises(MissingEventError):
            behavior.probability(scenario.atomic_event("A9", 1))

    def test_marginal(self, bell222):
        behavior = behavior_from_strategy(
            DeterministicStrategy((("A0", 1), ("A1", 0), ("B0", 0), ("B1", 1))), bell222
        )
        assert behavior.marginal("A0", 1, ("A0", "B0")) == 1
        assert behavior.marginal("A0", 0, ("A0", "B1")) == 0
        with pytest.raises(ValueError):
            behavior.marginal("A1", 0, ("A0", "B0"))


class TestStrategyLookup:
    def test_outcome_by_id(self):
        s = DeterministicStrategy((("B0", 1), ("A0", 0)))
        assert s.outcome("A0") == 0 and s.outcome("B0") == 1
        with pytest.raises(KeyError):
            s.outcome("A1")

    def test_lookup_table_stays_out_of_equality(self):
        s = DeterministicStrategy((("B0", 1), ("A0", 0)))
        t = DeterministicStrategy((("A0", 0), ("B0", 1)))
        assert s == t and hash(s) == hash(t)
        assert "_by_id" not in repr(s)


class TestJson:
    def test_behavior_round_trip_exact(self, bell222):
        behavior = quantum.construction_bell_behavior()
        again = behavior_from_json(behavior_to_json(behavior))
        assert again.probabilities == behavior.probabilities
        assert again.is_exact()

    def test_behavior_round_trip_float(self, bell222):
        behavior = quantum.bell_local_behavior(
            quantum.BellLocalModel(a=1.0, b=0.0, c=0.0, d=0.0)
        )
        again = behavior_from_json(behavior_to_json(behavior))
        assert again.probabilities == pytest.approx(behavior.probabilities)
