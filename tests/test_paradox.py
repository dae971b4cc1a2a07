from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exclusivity import classical, graphs, inequalities, quantum, scenario
from exclusivity.paradox import (
    chsh_paradox_spec,
    contextual_chsh_paradox_spec,
    hardy_spec,
    reduce_saturation_sets,
    verify,
)
from exclusivity.scenario import bell_222, bell_event
from builders import behavior_from_strategy, vertex_by_event


def bell_events(*labels):
    return tuple(bell_event(s) for s in labels)


class TestHardySpec:
    def test_zero_conditions(self):
        spec = hardy_spec()
        assert set(spec.zero_events) == set(bell_events("00|01", "00|10", "11|11"))
        assert len(spec.zero_events) == 3

    def test_positive_event(self):
        assert hardy_spec().positive_events == bell_events("00|00")

    def test_reduced_saturations(self):
        spec = hardy_spec()
        assert set(map(frozenset, spec.saturation_sets)) == {
            frozenset(bell_events("10|01", "01|11")),
            frozenset(bell_events("01|10", "10|11")),
        }

    def test_retained_events_induce_pentagon(self, graph222):
        spec = hardy_spec()
        retained = set(spec.positive_events)
        for sat in spec.saturation_sets:
            retained |= set(sat)
        ids = [vertex_by_event(graph222, e).id for e in retained]
        sub = scenario.subgraph(graph222, ids)
        holes = graphs.find_odd_holes(sub, 5)
        assert len(holes) == 1 and set(holes[0]) == set(ids)


class TestChshSpec:
    def test_zeros_as_printed(self):
        spec = chsh_paradox_spec()
        assert set(spec.zero_events) == set(bell_events("11|00", "00|01", "11|10", "01|11"))

    def test_positive_pair(self):
        assert set(chsh_paradox_spec().positive_events) == set(bell_events("01|00", "01|10"))

    def test_saturation_sets(self):
        spec = chsh_paradox_spec()
        assert set(map(frozenset, spec.saturation_sets)) == {
            frozenset(bell_events("10|00", "01|01")),
            frozenset(bell_events("10|01", "11|11")),
            frozenset(bell_events("10|10", "00|11")),
        }

    def test_third_set_uses_10_10(self):
        # the mutually-exclusive completion of the fourth cover contains
        # (10|10); the (01|10) variant is not an exclusivity cover
        spec = chsh_paradox_spec()
        third = [s for s in spec.saturation_sets if bell_event("00|11") in s]
        assert len(third) == 1
        assert bell_event("10|10") in third[0]
        assert not quantum.ep_cover_check(
            bell_events("11|10", "01|11", "00|11", "01|10"), bell_222()
        )


class TestContextualSpec:
    def test_structure(self):
        spec = contextual_chsh_paradox_spec()
        assert spec.zero_events == ()
        assert [e.label() for e in spec.positive_events] == ["(1|1)", "(1|8)"]
        assert [[e.label() for e in s] for s in spec.saturation_sets] == [
            ["(1|2)", "(1|3)"],
            ["(1|4)", "(1|5)"],
            ["(1|6)", "(1|7)"],
        ]

    def test_construction_verifies(self, construction):
        behavior = quantum.contextual_behavior(construction)
        report = verify(behavior, contextual_chsh_paradox_spec())
        assert report.verified
        assert report.p_hardy == Fraction(1, 6)
        assert all(r == 0 for r in report.saturation_residuals)


class TestReduction:
    def test_hardy_reductions_record_derivation(self):
        zeros = bell_events("00|01", "00|10", "11|11")
        full = [
            bell_events("00|01", "10|01", "01|11", "11|11"),
            bell_events("01|10", "00|10", "11|11", "10|11"),
        ]
        reductions = reduce_saturation_sets(full, zeros, bell_222())
        assert reductions[0] == bell_events("10|01", "01|11")
        assert reductions[1] == bell_events("01|10", "10|11")

    def test_no_zeros_is_identity(self):
        full = [bell_events("00|01", "10|01", "01|11", "11|11")]
        reductions = reduce_saturation_sets(full, (), bell_222())
        assert reductions[0] == full[0]

    def test_non_cover_rejected(self):
        with pytest.raises(ValueError):
            reduce_saturation_sets([bell_events("00|00", "11|11")], (), bell_222())


class TestSaturationCovers:
    @pytest.mark.parametrize("builder", [hardy_spec, chsh_paradox_spec])
    def test_zeros_complete_each_set_to_a_cover(self, builder):
        # the property the builders derive once: some of the spec's zeros
        # turn each saturation set back into an exclusivity cover
        spec = builder()
        zeros = spec.zero_events
        for sat in spec.saturation_sets:
            assert any(
                quantum.ep_cover_check(sat + subset, bell_222())
                for r in range(len(zeros) + 1)
                for subset in combinations(zeros, r)
            ), [str(e) for e in sat]


class TestVerify:
    def test_every_deterministic_behavior_fails_chsh(self, bell222):
        spec = chsh_paradox_spec()
        for strategy in classical.enumerate_deterministic(bell222):
            behavior = behavior_from_strategy(strategy, bell222)
            report = verify(behavior, spec)
            assert not report.verified
            if all(r == 0 for _, r in report.zero_residuals):
                assert report.p_hardy == 0

    def test_uniform_behavior_fails_hardy(self, bell222):
        uniform = classical.Behavior(
            scenario=bell222,
            probabilities={e: Fraction(1, 4) for e in scenario.enumerate_events(bell222)},
        )
        report = verify(uniform, hardy_spec())
        assert not report.verified
        assert dict(report.zero_residuals)["(00|01)"] == Fraction(1, 4)

    def test_construction_bell_behavior_verifies_chsh(self):
        behavior = quantum.construction_bell_behavior()
        report = verify(behavior, chsh_paradox_spec())
        assert report.verified
        assert report.p_hardy == Fraction(1, 6)

    def test_missing_events_raise(self, bell222):
        behavior = quantum.contextual_behavior(quantum.chsh_construction())
        with pytest.raises(classical.MissingEventError):
            verify(behavior, hardy_spec())

    def test_monotone_in_tol_below_p_hardy(self):
        behavior = quantum.construction_bell_behavior()
        spec = chsh_paradox_spec()
        tols = (1e-12, 1e-9, 1e-6, 1e-3)
        results = [verify(behavior, spec, tol=t).verified for t in tols]
        for earlier, later in zip(results, results[1:]):
            assert (not earlier) or later

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_invalid_tol_rejected(self, tol):
        behavior = quantum.construction_bell_behavior()
        with pytest.raises(ValueError, match="tol"):
            verify(behavior, chsh_paradox_spec(), tol=tol)

    def test_zero_tol_verifies_exact_behavior(self):
        report = verify(quantum.construction_bell_behavior(), chsh_paradox_spec(), tol=0)
        assert report.verified and report.tolerance == 0

    def test_report_json(self):
        behavior = quantum.construction_bell_behavior()
        data = verify(behavior, chsh_paradox_spec()).to_json()
        assert data["verified"] is True
        assert data["p_hardy"] == "1/6"
        assert set(data["zero_residuals"]) == {"(11|00)", "(00|01)", "(11|10)", "(01|11)"}


def _saturated_behavior(t1, t2, t3, u1, u2):
    """2-2-2 behavior satisfying the three CHSH saturation pairs exactly."""
    probs = {
        bell_event("01|00"): u1,
        bell_event("10|00"): t1,
        bell_event("01|01"): 1 - t1,
        bell_event("10|01"): t2,
        bell_event("11|11"): 1 - t2,
        bell_event("10|10"): t3,
        bell_event("00|11"): 1 - t3,
        bell_event("01|10"): u2,
    }
    s = bell_222()
    for ctx in s.contexts:
        events = s.context_events(ctx)
        known = [e for e in events if e in probs]
        free = [e for e in events if e not in probs]
        remainder = 1 - sum(probs[e] for e in known)
        for k, e in enumerate(free):
            probs[e] = remainder if k == 0 else 0
    return classical.Behavior(scenario=s, probabilities=probs)


class TestSaturationIdentity:
    @settings(max_examples=40, deadline=None)
    @given(*[st.floats(0.0, 1.0) for _ in range(5)])
    def test_s_chsh_equals_3_plus_p_hardy(self, r1, r2, r3, r4, r5):
        # map unit draws onto the feasible region: t2 <= t1, t2 + t3 >= 1,
        # u1 <= 1 - t1, u2 <= 1 - t3
        t1 = 0.3 + 0.6 * r1
        t2 = t1 * (0.2 + 0.8 * r2)
        t3 = 1 - t2 + t2 * 0.99 * r3
        u1 = (1 - t1) * 0.9 * r4
        u2 = (1 - t3) * 0.9 * r5
        behavior = _saturated_behavior(t1, t2, t3, u1, u2)
        value = inequalities.s_chsh(behavior)
        p_hardy = u1 + u2
        assert float(value) == pytest.approx(3 + p_hardy, abs=1e-12)
