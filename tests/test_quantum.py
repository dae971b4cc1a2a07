import cmath
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exclusivity import scenario
from exclusivity.quantum import (
    BellLocalModel,
    QuantumContextModel,
    SqrtFraction,
    StateVector,
    bell_event_probabilities,
    bell_local_behavior,
    chsh_vertex_event_mapping,
    construction_bell_behavior,
    construction_handle,
    construction_vectors,
    contextual_behavior,
    contextual_chsh_graph,
    ep_cover_check,
    model_vertex_probabilities,
)
from exclusivity.scenario import are_exclusive, bell_222, bell_event, enumerate_events
from builders import amplitudes, random_gaussian_vector
from oracles import bell_event_indices, bell_probabilities, ep_cover_by_enumeration, outcome_kets


def party_kets(model, party):
    """The oracle's outcome kets of one party, keyed by (outcome, setting)."""
    if party == "A":
        return outcome_kets(model.theta_a1, model.phi_a1)
    return outcome_kets(model.theta_b1, model.phi_b1)


def measurement_direction_marginal(model, party, setting, outcome):
    """Direct single-party marginal, bypassing the joint distribution."""
    psi = model.state().reshape(2, 2)
    ket = np.array(party_kets(model, party)[(outcome, setting)]).conjugate()
    collapsed = ket @ psi if party == "A" else psi @ ket
    return float(np.sum(np.abs(collapsed) ** 2))


gaussian_vectors = st.integers(0, 2**32 - 1).map(
    lambda seed: random_gaussian_vector(np.random.default_rng(seed), 3)
)


def bell_events(*labels):
    return [bell_event(s) for s in labels]


random_models = st.builds(
    BellLocalModel.from_unconstrained,
    amplitudes=st.tuples(*[st.floats(-1, 1) for _ in range(4)]).filter(
        lambda t: sum(x * x for x in t) > 1e-4
    ),
    phases=st.tuples(*[st.floats(0, 2 * math.pi) for _ in range(3)]),
    theta_a1=st.floats(0, math.pi),
    phi_a1=st.floats(0, 2 * math.pi),
    theta_b1=st.floats(0, math.pi),
    phi_b1=st.floats(0, 2 * math.pi),
)


class TestStateVector:
    def test_exact_norms(self):
        for vec in construction_vectors().values():
            assert vec.norm_sq() == 1
        assert construction_handle().norm_sq() == 1

    def test_born_paper_values(self):
        psi = construction_handle()
        vecs = construction_vectors()
        assert vecs[1].born(psi) == Fraction(1, 12)
        assert vecs[2].born(psi) == Fraction(1, 2)
        assert vecs[4].born(psi) == Fraction(1, 3)
        assert vecs[5].born(psi) == Fraction(2, 3)

    def test_born_orthogonal_and_self(self):
        e0 = StateVector([1, 0], 1)
        e1 = StateVector([0, 1], 1)
        assert e1.born(e0) == 0
        assert e0.born(e0) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            StateVector([1, 0, 0], 1).born(StateVector([1, 0], 1))

    def test_complex_exact_inner(self):
        v = StateVector([(1, 1), (0, 0)], 2)
        assert v.norm_sq() == 1
        w = StateVector([(0, 0), (1, -1)], 2)
        assert v.inner_is_zero(w)
        assert w.born(v) == 0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            StateVector([1, 0], 0)

    @settings(max_examples=100, deadline=None)
    @given(gaussian_vectors, gaussian_vectors)
    def test_exact_arithmetic_matches_numpy(self, u, v):
        a, b = amplitudes(u), amplitudes(v)
        assert isinstance(u.born(v), Fraction) and isinstance(u.norm_sq(), Fraction)
        assert abs(u.inner(v) - np.vdot(a, b)) <= 1e-12
        assert abs(float(u.born(v)) - abs(np.vdot(a, b)) ** 2) <= 1e-12
        assert abs(float(u.norm_sq()) - np.vdot(a, a).real) <= 1e-12
        # a nonzero Gaussian-integer inner product is at least 1/sqrt(d) in size
        assert u.inner_is_zero(v) == (abs(np.vdot(a, b)) <= 1e-12)


class TestConstruction:
    def test_model_validates(self, construction):
        # constructing at all means every edge is exactly orthogonal
        assert construction.handle.dim == 4

    def test_graph_shape(self, construction):
        g = construction.graph
        assert g.n == 8 and len(g.edges) == 12 and g.is_regular(3)

    def test_vertex_probabilities(self, construction):
        probs = model_vertex_probabilities(construction)
        assert probs == {
            1: Fraction(1, 12),
            2: Fraction(1, 2),
            3: Fraction(1, 2),
            4: Fraction(1, 3),
            5: Fraction(2, 3),
            6: Fraction(1, 3),
            7: Fraction(2, 3),
            8: Fraction(1, 12),
        }
        assert sum(probs.values()) == Fraction(19, 6)

    def test_positive_pair_is_one_sixth(self, construction):
        probs = model_vertex_probabilities(construction)
        assert probs[1] + probs[8] == Fraction(1, 6)

    def test_saturation_pairs_sum_to_one(self, construction):
        probs = model_vertex_probabilities(construction)
        for i, j in ((2, 3), (4, 5), (6, 7)):
            assert probs[i] + probs[j] == 1

    def test_frozen_mapping_is_an_isomorphism(self):
        # a bijection onto the CHSH events that maps edges to exclusive
        # pairs and non-edges to non-exclusive ones
        mapping = chsh_vertex_event_mapping()
        contextual = contextual_chsh_graph()
        assert sorted(mapping) == sorted(contextual.vertex_ids())
        assert len(set(mapping.values())) == len(mapping)
        assert set(mapping.values()) == set(scenario.chsh_events())
        for i, j in itertools.combinations(sorted(mapping), 2):
            assert contextual.has_edge(i, j) == are_exclusive(mapping[i], mapping[j]), (i, j)

    def test_mapping_is_isomorphism_pinned_to_positive_events(self, chsh_graph):
        mapping = chsh_vertex_event_mapping()
        assert mapping[1] == bell_event("01|00")
        assert mapping[8] == bell_event("01|10")
        contextual = contextual_chsh_graph()
        for i, j in contextual.edges:
            assert are_exclusive(mapping[i], mapping[j])

    def test_decompositions(self, construction):
        from exclusivity.quantum import verify_state_decomposition

        half = SqrtFraction(Fraction(1, 2))
        third = SqrtFraction(Fraction(1, 3))
        two_thirds = SqrtFraction(Fraction(2, 3))
        assert verify_state_decomposition(construction, (2, 3), (half, half))
        assert verify_state_decomposition(construction, (4, 5), (third, two_thirds))
        assert verify_state_decomposition(construction, (6, 7), (third, two_thirds))
        assert not verify_state_decomposition(
            construction, (2, 3), (SqrtFraction(Fraction(1)), SqrtFraction(Fraction(0)))
        )

    def test_decomposition_with_irrational_weight_fails(self, construction):
        from exclusivity.quantum import verify_state_decomposition

        # psi = (1,1,0,0)/sqrt(2) and v2 = (1,0,0,0): the weight sqrt(1/3)
        # rescales to sqrt(1/3 * 2/1), irrational
        third = SqrtFraction(Fraction(1, 3))
        two_thirds = SqrtFraction(Fraction(2, 3))
        assert not verify_state_decomposition(construction, (2, 3), (third, two_thirds))

    def test_unknown_vertex_pair(self, construction):
        from exclusivity.quantum import verify_state_decomposition

        with pytest.raises(ValueError):
            verify_state_decomposition(
                construction, (2, 9), (SqrtFraction(Fraction(1)), SqrtFraction(Fraction(0)))
            )

    def test_invalid_representation_rejected(self, construction):
        bad = dict(construction.vertex_vectors)
        bad[2], bad[3] = bad[3], bad[2]
        with pytest.raises(ValueError):
            QuantumContextModel(
                graph=construction.graph, vertex_vectors=bad, handle=construction.handle
            )


class TestEpCover:
    def test_b1_direction_cover(self, bell222):
        assert ep_cover_check(bell_events("00|01", "10|01", "01|11", "11|11"), bell222)

    def test_corrected_third_cover(self, bell222):
        assert ep_cover_check(bell_events("11|10", "01|11", "00|11", "10|10"), bell222)

    def test_uncorrected_third_set_fails(self, bell222):
        # the (01|10) variant is not even pairwise exclusive
        assert not ep_cover_check(bell_events("11|10", "01|11", "00|11", "01|10"), bell222)

    def test_non_covering_pair(self, bell222):
        assert not ep_cover_check(bell_events("00|00", "11|11"), bell222)

    def test_exclusive_but_not_covering(self, bell222):
        assert not ep_cover_check(bell_events("00|00", "11|00"), bell222)

    def test_contexts_are_covers(self, bell222):
        for ctx in bell222.contexts:
            assert ep_cover_check(bell222.context_events(ctx), bell222)

    def test_counting_matches_enumeration_on_small_subsets(self, bell222):
        events = enumerate_events(bell222)
        covers = 0
        for r in range(5):
            for subset in itertools.combinations(events, r):
                expected = ep_cover_by_enumeration(subset, bell222)
                assert ep_cover_check(subset, bell222) == expected, [str(e) for e in subset]
                covers += expected
        # the four contexts plus the mixed covers, such as the B1 direction's
        assert covers > 4

    def test_three_outcomes(self):
        s = scenario.bell_scenario((2, 2), 3)
        assert ep_cover_check(s.context_events(("A0", "B0")), s)
        assert not ep_cover_check(s.context_events(("A0", "B0"))[1:], s)
        # A0 = 0 and A0 = 2 resolved by B0, A0 = 1 by B1
        mixed = [
            scenario.Event((("A0", a), (bob, b))) for a, bob in ((0, "B0"), (1, "B1"), (2, "B0"))
            for b in range(3)
        ]
        assert ep_cover_check(mixed, s) and ep_cover_by_enumeration(mixed, s)
        assert not ep_cover_check(mixed[:-1], s)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_three_outcome_subsets_match_enumeration(self, data):
        s = scenario.bell_scenario((2, 2), 3)
        events = enumerate_events(s)
        picks = data.draw(st.lists(st.sampled_from(events), max_size=9, unique=True))
        assert ep_cover_check(picks, s) == ep_cover_by_enumeration(picks, s)

    @settings(max_examples=25, deadline=None)
    @given(random_models)
    def test_covers_sum_to_one_for_quantum_models(self, model):
        behavior = bell_local_behavior(model)
        covers = [
            bell_events("00|01", "10|01", "01|11", "11|11"),
            bell_events("01|10", "00|10", "11|11", "10|11"),
            bell_events("11|00", "00|01", "10|00", "01|01"),
            bell_events("11|10", "01|11", "00|11", "10|10"),
        ]
        for cover in covers:
            assert sum(behavior.probability(e) for e in cover) == pytest.approx(1.0, abs=1e-9)


class TestBellLocalBehavior:
    def test_product_state_computational_basis(self):
        model = BellLocalModel(a=1.0, b=0.0, c=0.0, d=0.0)
        behavior = bell_local_behavior(model)
        for labels in ("00|00", "00|01", "00|10", "00|11"):
            assert behavior.probability(bell_event(labels)) == pytest.approx(1.0)

    def test_singlet_anticorrelation(self):
        # (|01> - |10>)/sqrt(2), both parties measuring the same direction
        s = 1 / math.sqrt(2)
        model = BellLocalModel(a=0.0, b=s, c=s, d=0.0, phi_c=math.pi)
        behavior = bell_local_behavior(model)
        for ctx in ("00",):
            assert behavior.probability(bell_event(f"00|{ctx}")) == pytest.approx(0.0, abs=1e-12)
            assert behavior.probability(bell_event(f"11|{ctx}")) == pytest.approx(0.0, abs=1e-12)
        same_dir = BellLocalModel(
            a=0.0, b=s, c=s, d=0.0, phi_c=math.pi,
            theta_a1=1.2, phi_a1=0.7, theta_b1=1.2, phi_b1=0.7,
        )
        behavior = bell_local_behavior(same_dir)
        assert behavior.probability(bell_event("00|11")) == pytest.approx(0.0, abs=1e-12)
        assert behavior.probability(bell_event("11|11")) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(random_models)
    def test_no_signaling(self, model):
        behavior = bell_local_behavior(model)
        for a in (0, 1):
            for x in (0, 1):
                m0 = behavior.marginal(f"A{x}", a, (f"A{x}", "B0"))
                m1 = behavior.marginal(f"A{x}", a, (f"A{x}", "B1"))
                assert m0 == pytest.approx(m1, abs=1e-9)
        for b in (0, 1):
            for y in (0, 1):
                m0 = behavior.marginal(f"B{y}", b, ("A0", f"B{y}"))
                m1 = behavior.marginal(f"B{y}", b, ("A1", f"B{y}"))
                assert m0 == pytest.approx(m1, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(random_models)
    def test_exclusive_events_have_orthogonal_projectors(self, model):
        # local orthogonality: exclusive events of one model correspond to
        # orthogonal product eigenvectors
        kets = {party: party_kets(model, party) for party in "AB"}

        def eigvec(event):
            a, b, x, y = bell_event_indices(event)
            return np.kron(kets["A"][(a, x)], kets["B"][(b, y)])

        events = enumerate_events(bell_222())
        for k, e1 in enumerate(events):
            for e2 in events[k + 1 :]:
                if not are_exclusive(e1, e2):
                    continue
                assert abs(np.vdot(eigvec(e1), eigvec(e2))) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(random_models)
    def test_marginalization_matches_direct(self, model):
        behavior = bell_local_behavior(model)
        for party, setting in (("A", 0), ("A", 1), ("B", 0), ("B", 1)):
            mid = f"{party}{setting}"
            ctx = (mid, "B0") if party == "A" else ("A0", mid)
            summed = behavior.marginal(mid, 1, ctx)
            direct = measurement_direction_marginal(model, party, setting, 1)
            assert summed == pytest.approx(direct, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(random_models)
    def test_probabilities_match_oracle(self, model):
        events = enumerate_events(bell_222())
        expected = bell_probabilities(
            model.state(),
            model.theta_a1, model.phi_a1, model.theta_b1, model.phi_b1,
            events,
        )
        got = bell_event_probabilities(model, events)
        assert max(abs(p - q) for p, q in zip(got, expected)) <= 1e-15

    def test_rejects_events_outside_222(self):
        model = BellLocalModel(a=1.0, b=0.0, c=0.0, d=0.0)
        for event in (bell_event("00|20"), bell_event("20|00"), scenario.atomic_event("A0", 0)):
            with pytest.raises(ValueError, match=re.escape(str(event))):
                bell_event_probabilities(model, [event])
        assert bell_event_probabilities(model, []) == []

    def test_from_unconstrained_folds_signs(self):
        raw = (-0.3, 0.5, -0.2, 0.7)
        model = BellLocalModel.from_unconstrained(
            amplitudes=raw,
            phases=(0.2, 0.4, 0.6),
            theta_a1=1.0,
            phi_a1=0.3,
            theta_b1=2.0,
            phi_b1=5.0,
        )
        norm = math.sqrt(sum(x * x for x in raw))
        direct = np.array(
            [
                raw[0] / norm,
                raw[1] / norm * cmath.exp(0.2j),
                raw[2] / norm * cmath.exp(0.4j),
                raw[3] / norm * cmath.exp(0.6j),
            ]
        )
        folded = model.state()
        # same state up to a global phase (here a global sign)
        assert np.allclose(folded, -direct, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            BellLocalModel(a=-0.5, b=0.5, c=0.5, d=0.5)
        with pytest.raises(ValueError):
            BellLocalModel(a=1.0, b=1.0, c=0.0, d=0.0)
        with pytest.raises(ValueError):
            BellLocalModel(a=1.0, b=0.0, c=0.0, d=0.0, theta_a1=4.0)

    def test_json_round_trip(self):
        model = BellLocalModel.from_unconstrained(
            (0.4, 0.3, 0.2, 0.1), (1.0, 2.0, 3.0), 0.5, 1.5, 2.5, 0.5
        )
        again = BellLocalModel.from_json(model.to_json())
        assert again == model


class TestInducedBehaviors:
    def test_contextual_behavior_is_exact(self, construction):
        behavior = contextual_behavior(construction)
        assert behavior.probability(scenario.atomic_event("A1", 1)) == Fraction(1, 12)
        assert behavior.probability(scenario.atomic_event("A1", 0)) == Fraction(11, 12)

    def test_construction_bell_behavior_contexts(self, construction):
        behavior = construction_bell_behavior()
        assert behavior.is_exact()
        assert behavior.probability(bell_event("00|00")) == Fraction(1, 4)
        assert behavior.probability(bell_event("11|01")) == Fraction(1, 6)
        assert behavior.probability(bell_event("00|10")) == Fraction(1, 4)
        assert behavior.probability(bell_event("10|11")) == Fraction(1, 6)

    def test_construction_bell_behavior_is_no_signaling(self):
        behavior = construction_bell_behavior()
        for mid, outcome, c1, c2 in (
            ("A0", 0, ("A0", "B0"), ("A0", "B1")),
            ("A1", 0, ("A1", "B0"), ("A1", "B1")),
            ("B0", 0, ("A0", "B0"), ("A1", "B0")),
            ("B1", 0, ("A0", "B1"), ("A1", "B1")),
        ):
            assert behavior.marginal(mid, outcome, c1) == behavior.marginal(mid, outcome, c2)
