"""Acceptance suite: one test per headline claim, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Budgets are wall-clock upper bounds; every numeric
tolerance is pinned here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np

from exclusivity import classical, graphs, inequalities, optimize, paradox, quantum, scenario
from exclusivity.optimize import Classification, OptimizerConfig
from exclusivity.quantum import SqrtFraction
from exclusivity.scenario import bell_222, bell_event
from builders import amplitudes

HARDY_MAX = (5 * math.sqrt(5) - 11) / 2


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(f"{status} {self.name} ({elapsed:.1f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded budget: {elapsed:.1f}s"
        return False


def test_criterion_1_exact_construction():
    with Budget("criterion 1: exact ququart construction", 1.0):
        model = quantum.chsh_construction()  # validates all 12 orthogonalities exactly

        report = graphs.verify_orthonormal_representation(model.graph, model.representation())
        assert report.valid and not report.edge_violations

        probs = quantum.model_vertex_probabilities(model)
        assert probs[1] + probs[8] == Fraction(1, 6)

        behavior = quantum.contextual_behavior(model)
        verification = paradox.verify(behavior, paradox.contextual_chsh_paradox_spec())
        assert verification.verified
        assert verification.p_hardy == Fraction(1, 6)

        for i, j in ((2, 3), (4, 5), (6, 7)):
            assert probs[i] + probs[j] == 1

        half = SqrtFraction(Fraction(1, 2))
        third = SqrtFraction(Fraction(1, 3))
        two_thirds = SqrtFraction(Fraction(2, 3))
        assert quantum.verify_state_decomposition(model, (2, 3), (half, half))
        assert quantum.verify_state_decomposition(model, (4, 5), (third, two_thirds))
        assert quantum.verify_state_decomposition(model, (6, 7), (third, two_thirds))

        # float path of the same checks stays within 1e-12
        amp_handle = amplitudes(model.handle)
        for i, vec in model.vertex_vectors.items():
            p_float = abs(np.vdot(amplitudes(vec), amp_handle)) ** 2
            assert abs(p_float - float(probs[i])) <= 1e-12


def test_criterion_2_classical_impossibility():
    with Budget("criterion 2: classical impossibility (16 strategies)", 1.0):
        s = bell_222()
        assert len(classical.enumerate_deterministic(s)) == 16
        hardy_value, hardy_witness = classical.classical_paradox_max(paradox.hardy_spec(), s)
        assert hardy_value == 0 and hardy_witness is not None
        chsh_value, chsh_witness = classical.classical_paradox_max(paradox.chsh_paradox_spec(), s)
        assert chsh_value == 0 and chsh_witness is not None


def test_criterion_3_two_qubit_local_bound():
    with Budget("criterion 3: two-qubit local bound (1000 restarts)", 300.0):
        result = optimize.maximize_chsh_paradox_local(
            OptimizerConfig(restarts=1000, seed=20240)
        )
        assert result.feasible
        assert result.best_value <= 1e-6
        feasible = [s for s in result.restart_summaries if s.feasible]
        assert len(feasible) == 1000
        for summary in feasible:
            assert summary.classification in (
                Classification.COMPATIBLE_MEASUREMENTS,
                Classification.PRODUCT_STATE,
            )


def test_criterion_4_hardy_maximum():
    with Budget("criterion 4: Hardy maximum (200 restarts)", 120.0):
        result = optimize.maximize_hardy_local(OptimizerConfig(restarts=200, seed=20240))
        assert result.feasible
        assert abs(result.best_value - HARDY_MAX) <= 1e-4


def test_criterion_5_graph_invariants():
    with Budget("criterion 5: alpha and theta of pentagon and CHSH graph", 30.0):
        pentagon = scenario.pentagon_event_graph()
        alpha_p, _ = graphs.independence_number(pentagon)
        assert alpha_p == 2
        theta_p = graphs.lovasz_theta(pentagon)
        assert abs(theta_p.value - math.sqrt(5)) <= 1e-5

        chsh = scenario.chsh_event_graph()
        alpha_c, _ = graphs.independence_number(chsh)
        assert alpha_c == 3
        theta_c = graphs.lovasz_theta(chsh)
        assert abs(theta_c.value - (2 + math.sqrt(2))) <= 1e-5


def test_criterion_6_inequality_chain():
    with Budget("criterion 6: S_CHSH = 19/6, correlator sum -7, identity", 5.0):
        behavior = quantum.construction_bell_behavior()
        assert inequalities.s_chsh(behavior) == Fraction(19, 6)

        model = quantum.chsh_construction()
        probs = quantum.model_vertex_probabilities(model)
        result = inequalities.correlator_inequality_value(probs, model.graph)
        assert result.value == -7
        assert result.violated and result.nchv_bound == -6

        graph = model.graph
        ids = graph.vertex_ids()
        rng = np.random.default_rng(20240)
        for _ in range(1000):
            ps = dict(zip(ids, rng.uniform(0.0, 1.0, 8)))
            res = inequalities.correlator_inequality_value(ps, graph)
            assert abs(float(res.value) - (12 - 6 * sum(ps.values()))) <= 1e-9


def test_criterion_7_kcbs_values():
    with Budget("criterion 7: KCBS sqrt(5) and 2 + 1/9", 300.0):
        free = optimize.maximize_kcbs_qutrit(False, OptimizerConfig(restarts=60, seed=20240))
        assert free.feasible
        assert abs(free.best_value - math.sqrt(5)) <= 1e-4

        constrained = optimize.maximize_kcbs_qutrit(True, OptimizerConfig(restarts=60, seed=20240))
        assert constrained.feasible
        assert abs(constrained.best_value - (2 + Fraction(1, 9))) <= 1e-3


def test_criterion_8_converse_witness():
    with Budget("criterion 8: Tsirelson point violates but fails the paradox", 1.0):
        behavior = inequalities.tsirelson_counterexample()
        value = inequalities.s_chsh(behavior)
        assert abs(float(value) - (2 + math.sqrt(2))) <= 1e-6
        report = paradox.verify(behavior, paradox.chsh_paradox_spec())
        assert not report.verified
        assert all(float(r) > report.tolerance for _, r in report.zero_residuals)


def test_criterion_9_property_suites():
    with Budget("criterion 9: exclusivity, no-signaling, EP covers, alpha<=theta", 120.0):
        rng = np.random.default_rng(20240)

        # exclusivity symmetry / irreflexivity on random events
        ids = [f"M{i}" for i in range(5)]
        for _ in range(300):
            k1, k2 = rng.integers(1, 5, 2)
            e1 = scenario.Event(
                tuple((m, int(rng.integers(0, 2))) for m in rng.choice(ids, k1, replace=False))
            )
            e2 = scenario.Event(
                tuple((m, int(rng.integers(0, 2))) for m in rng.choice(ids, k2, replace=False))
            )
            assert scenario.are_exclusive(e1, e2) == scenario.are_exclusive(e2, e1)
            assert not scenario.are_exclusive(e1, e1)

        # no-signaling and EP-cover saturation for random local models
        covers = [
            [bell_event(s) for s in ("00|01", "10|01", "01|11", "11|11")],
            [bell_event(s) for s in ("01|10", "00|10", "11|11", "10|11")],
            [bell_event(s) for s in ("11|00", "00|01", "10|00", "01|01")],
            [bell_event(s) for s in ("11|10", "01|11", "00|11", "10|10")],
        ]
        for _ in range(50):
            model = quantum.BellLocalModel.from_unconstrained(
                amplitudes=rng.normal(size=4),
                phases=rng.uniform(0, 2 * math.pi, 3),
                theta_a1=rng.uniform(0, math.pi),
                phi_a1=rng.uniform(0, 2 * math.pi),
                theta_b1=rng.uniform(0, math.pi),
                phi_b1=rng.uniform(0, 2 * math.pi),
            )
            behavior = quantum.bell_local_behavior(model)
            for x in (0, 1):
                for a in (0, 1):
                    delta = behavior.marginal(f"A{x}", a, (f"A{x}", "B0")) - behavior.marginal(
                        f"A{x}", a, (f"A{x}", "B1")
                    )
                    assert abs(delta) <= 1e-9
            for y in (0, 1):
                for b in (0, 1):
                    delta = behavior.marginal(f"B{y}", b, ("A0", f"B{y}")) - behavior.marginal(
                        f"B{y}", b, ("A1", f"B{y}")
                    )
                    assert abs(delta) <= 1e-9
            for cover in covers:
                total = sum(behavior.probability(e) for e in cover)
                assert abs(float(total) - 1.0) <= 1e-9

        # alpha <= theta on 100 random graphs with at most 12 vertices
        for _ in range(100):
            n = int(rng.integers(3, 13))
            p = rng.uniform(0.1, 0.9)
            edges = tuple(
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
            )
            g = scenario.ExclusivityGraph(
                vertices=tuple(scenario.GraphVertex(id=i) for i in range(n)), edges=edges
            )
            alpha, _ = graphs.independence_number(g)
            theta = graphs.lovasz_theta(g)
            assert alpha <= theta.value + theta.duality_gap + 1e-9
