import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exclusivity import classical, graphs, paradox, quantum, scenario
from exclusivity.inequalities import (
    chsh_probability_inequality,
    correlator_inequality_value,
    edge_correlators,
    evaluate_event_sum,
    kcbs_inequality,
    s_chsh,
    tsirelson_counterexample,
    tsirelson_model,
)
from exclusivity.scenario import chsh_events
from builders import behavior_from_strategy, random_gaussian_vector
from oracles import classical_max

SQRT2 = math.sqrt(2)


def s_kcbs(pentagon_probs):
    """Plain five-term sum of pentagon vertex probabilities (bound 2)."""
    if len(pentagon_probs) != 5:
        raise ValueError(f"expected 5 probabilities, got {len(pentagon_probs)}")
    return sum(pentagon_probs)


def generalized_vertex_sum_bound(vertex_probs, graph):
    """(sum_i p(1|i), independence number): value versus classical bound."""
    value = sum(vertex_probs[v] for v in graph.vertex_ids())
    alpha, _ = graphs.independence_number(graph)
    return value, alpha


class TestSChsh:
    def test_construction_behavior(self):
        assert s_chsh(quantum.construction_bell_behavior()) == Fraction(19, 6)

    def test_best_deterministic(self, bell222):
        best = max(
            s_chsh(behavior_from_strategy(s, bell222))
            for s in classical.enumerate_deterministic(bell222)
        )
        assert best == 3

    def test_uniform(self, bell222):
        uniform = classical.Behavior(
            scenario=bell222,
            probabilities={e: Fraction(1, 4) for e in scenario.enumerate_events(bell222)},
        )
        assert s_chsh(uniform) == 2


class TestSKcbs:
    def test_deterministic_max(self, bell222):
        value, _ = classical_max(scenario.hardy_pentagon_events(), bell222)
        assert value == 2

    def test_plain_sum(self):
        assert s_kcbs([1, 1, 0, 0, 0]) == 2
        assert s_kcbs([0, 0, 0, 0, 0]) == 0
        assert s_kcbs([1 / math.sqrt(5)] * 5) == pytest.approx(math.sqrt(5))

    def test_arity(self):
        with pytest.raises(ValueError):
            s_kcbs([0.5, 0.5])


class TestEdgeCorrelators:
    def test_all_zero(self, chsh_graph):
        probs = {v: 0 for v in chsh_graph.vertex_ids()}
        assert all(v == 1 for v in edge_correlators(probs, chsh_graph).values())

    def test_half_half(self):
        g = graphs.cycle_graph(2)
        corr = edge_correlators({0: 0.5, 1: 0.5}, g)
        assert corr[(0, 1)] == pytest.approx(-1.0)

    def test_construction_sums_to_minus_7(self, construction):
        probs = quantum.model_vertex_probabilities(construction)
        corr = edge_correlators(probs, construction.graph)
        assert sum(corr.values()) == -7

    def test_missing_vertex(self, chsh_graph):
        with pytest.raises(ValueError):
            edge_correlators({1: 0.5}, chsh_graph)


class TestCorrelatorInequality:
    def test_construction_violates(self, construction):
        probs = quantum.model_vertex_probabilities(construction)
        result = correlator_inequality_value(probs, construction.graph)
        assert result.value == -7
        assert result.violated
        assert result.closed_form_valid
        assert result.value == 12 - 6 * result.vertex_sum

    def test_deterministic_bound_attained(self, construction):
        # independent set of size three at probability 1
        probs = {v: 0 for v in construction.graph.vertex_ids()}
        alpha, witness = graphs.independence_number(construction.graph)
        for v in witness:
            probs[v] = 1
        result = correlator_inequality_value(probs, construction.graph)
        assert result.value == -6
        assert not result.violated

    def test_all_zero_gives_12(self, construction):
        probs = {v: 0 for v in construction.graph.vertex_ids()}
        assert correlator_inequality_value(probs, construction.graph).value == 12

    def test_non_3_regular_flagged(self, pentagon_graph):
        probs = {v: 0.3 for v in pentagon_graph.vertex_ids()}
        result = correlator_inequality_value(probs, pentagon_graph)
        assert not result.closed_form_valid
        # the raw edge sum is still returned
        assert result.value == pytest.approx(5 * (1 - 2 * 0.6))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=8, max_size=8))
    def test_closed_form_identity(self, ps):
        graph = quantum.contextual_chsh_graph()
        probs = dict(zip(graph.vertex_ids(), ps))
        result = correlator_inequality_value(probs, graph)
        assert float(result.value) == pytest.approx(
            12 - 6 * float(sum(ps)), abs=1e-9
        )

    def test_quantum_bound_over_random_handles(self, construction):
        # random unit handles on the fixed vector system: the correlator sum
        # never beats 12 - 6*theta
        theta = graphs.lovasz_theta(construction.graph)
        lower = 12 - 6 * (theta.value + theta.duality_gap)
        rng = np.random.default_rng(42)
        for _ in range(25):
            handle = random_gaussian_vector(rng, 4)
            probs = {
                v: handle.born(vec) for v, vec in construction.vertex_vectors.items()
            }
            result = correlator_inequality_value(probs, construction.graph)
            assert float(result.value) >= lower - 1e-7

    def test_corollary_paradox_implies_violation(self, construction):
        # any vertex probabilities satisfying the three saturation pairs with
        # positive (1, 8) mass land strictly below -6
        rng = np.random.default_rng(9)
        for _ in range(50):
            t = rng.uniform(0.0, 1.0, 3)
            u = rng.uniform(1e-4, 0.5, 2)
            probs = {
                1: u[0], 8: u[1],
                2: t[0], 3: 1 - t[0],
                4: t[1], 5: 1 - t[1],
                6: t[2], 7: 1 - t[2],
            }
            result = correlator_inequality_value(probs, construction.graph)
            assert float(result.value) < -6


class TestVertexSumBound:
    def test_construction(self, construction):
        probs = quantum.model_vertex_probabilities(construction)
        value, alpha = generalized_vertex_sum_bound(probs, construction.graph)
        assert value == Fraction(19, 6)
        assert alpha == 3

    def test_deterministic_max_attains_alpha(self, construction):
        alpha, witness = graphs.independence_number(construction.graph)
        probs = {v: (1 if v in witness else 0) for v in construction.graph.vertex_ids()}
        value, bound = generalized_vertex_sum_bound(probs, construction.graph)
        assert value == bound == 3

    def test_pentagon_umbrella(self, pentagon_graph):
        probs = {v: 1 / math.sqrt(5) for v in pentagon_graph.vertex_ids()}
        value, alpha = generalized_vertex_sum_bound(probs, pentagon_graph)
        assert float(value) == pytest.approx(math.sqrt(5))
        assert alpha == 2


class TestEventSumSpecs:
    def test_chsh_spec_bound_crosschecked(self):
        spec = chsh_probability_inequality()
        assert spec.classical_bound == 3

    def test_kcbs_spec_bound(self):
        assert kcbs_inequality().classical_bound == 2

    def test_wrong_bound_rejected(self):
        from exclusivity.inequalities import InequalitySpec

        with pytest.raises(ValueError):
            InequalitySpec(name="bad", classical_bound=4, events=tuple(chsh_events()))

    def test_evaluation(self):
        behavior = quantum.construction_bell_behavior()
        ev = evaluate_event_sum(chsh_probability_inequality(), behavior)
        assert ev.value == Fraction(19, 6)
        assert ev.violated
        data = ev.to_json()
        assert data["value"] == "19/6"
        assert data["bound"] == 3


class TestTsirelson:
    def test_s_chsh_attains_quantum_maximum(self):
        behavior = tsirelson_counterexample()
        assert float(s_chsh(behavior)) == pytest.approx(2 + SQRT2, abs=1e-6)

    def test_paradox_fails(self):
        behavior = tsirelson_counterexample()
        report = paradox.verify(behavior, paradox.chsh_paradox_spec())
        assert not report.verified
        for _, residual in report.zero_residuals:
            assert float(residual) == pytest.approx((2 - SQRT2) / 8, abs=1e-12)

    def test_behavior_is_normalized(self):
        behavior = tsirelson_counterexample()  # Behavior validates on build
        for ctx in behavior.scenario.contexts:
            total = sum(behavior.probability(e) for e in behavior.scenario.context_events(ctx))
            assert float(total) == pytest.approx(1.0, abs=1e-12)

    def test_model_norm(self):
        model = tsirelson_model()
        assert model.a**2 + model.b**2 + model.c**2 + model.d**2 == pytest.approx(1.0)
