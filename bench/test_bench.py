"""Tests of the benchmark itself: every check accepts the program's real
output and rejects a corrupted copy, and tracing does not perturb results.

    PYTHONPATH=src python -m pytest -q bench
"""

import copy
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from exclusivity import graphs, optimize  # noqa: E402


@pytest.fixture(scope="module")
def pentagon():
    case = workloads.GraphCase("C5", graphs.cycle_graph(5), checks.odd_cycle_theta(5))
    alpha, witness = graphs.independence_number(case.graph)
    theta = graphs.lovasz_theta(case.graph)
    return case, alpha, witness, theta


def theta_errors(case, alpha, theta_json, certificate):
    cover = checks.clique_cover_weight(case.n, case.edges, case.weights)
    return checks.check_theta(
        theta_json, certificate, case.n, case.edges, case.weights, alpha, cover, case.closed_form
    )


def test_alpha_check_rejects_off_by_one(pentagon):
    case, alpha, witness, _ = pentagon
    assert checks.check_alpha(alpha, witness, case.n, case.edges, case.weights) == []
    assert checks.check_alpha(alpha + 1, witness, case.n, case.edges, case.weights)
    assert checks.check_alpha(alpha - 1, witness, case.n, case.edges, case.weights)


def test_brute_force_alpha_on_known_graphs():
    assert checks.brute_force_alpha(5, checks.PENTAGON_EDGES, [1] * 5) == 2
    assert checks.brute_force_alpha(4, [], [1, 2, 3, 4]) == 10
    complete = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    assert checks.brute_force_alpha(6, complete, [1, 5, 2, 1, 1, 1]) == 5
    assert checks.clique_cover_weight(6, complete, [1, 5, 2, 1, 1, 1]) == 5


def test_theta_check_rejects_shift(pentagon):
    case, alpha, _, theta = pentagon
    good = theta.to_json()
    assert theta_errors(case, alpha, good, theta.primal_certificate) == []
    shifted = dict(good, value=good["value"] + 1e-4)
    assert theta_errors(case, alpha, shifted, theta.primal_certificate)
    all_shifted = {k: good[k] + 1e-4 for k in ("value", "primal_value", "dual_value")}
    assert theta_errors(case, alpha, dict(good, **all_shifted), theta.primal_certificate)


def test_theta_check_rejects_nonzero_edge_entry(pentagon):
    case, alpha, _, theta = pentagon
    certificate = theta.primal_certificate.copy()
    i, j = case.edges[0]
    certificate[i, j] = certificate[j, i] = 1e-6
    errors = theta_errors(case, alpha, theta.to_json(), certificate)
    assert any("on an edge" in e for e in errors)


def test_theta_check_rejects_certificate_not_psd(pentagon):
    case, alpha, _, theta = pentagon
    certificate = theta.primal_certificate - 0.5 * np.eye(case.n)
    certificate /= np.trace(certificate)
    assert theta_errors(case, alpha, theta.to_json(), certificate)


def test_theta_product_check():
    assert checks.check_theta_product(math.sqrt(5), math.sqrt(5), 5) == []
    assert checks.check_theta_product(math.sqrt(5), math.sqrt(5) - 1e-4, 5)


@pytest.fixture(scope="module")
def chsh_local():
    return optimize.maximize_chsh_paradox_local(optimize.OptimizerConfig(restarts=2, seed=7))


def test_two_qubit_check_rejects_zero_event_at_1e_6(chsh_local):
    model = chsh_local.best_parameters["model"]
    args = (checks.CHSH_POSITIVE, checks.CHSH_ZEROS, chsh_local.best_value)
    assert checks.check_two_qubit_model(model, *args) == []
    corrupted = copy.deepcopy(model)
    a, b, c, _ = model["amplitudes"]
    scale = math.sqrt((1 - 1e-6) / (a * a + b * b + c * c))
    corrupted["amplitudes"] = [a * scale, b * scale, c * scale, 1e-3]
    corrupted["phases"][2] = 0.0
    assert checks.bell_probabilities(corrupted, ["11|00"])[0] == pytest.approx(1e-6)
    assert any("11|00" in e for e in checks.check_two_qubit_model(corrupted, *args))


def test_two_qubit_check_rejects_wrong_value(chsh_local):
    model = chsh_local.best_parameters["model"]
    assert checks.check_two_qubit_model(
        model, checks.CHSH_POSITIVE, checks.CHSH_ZEROS, chsh_local.best_value + 1e-6
    )


def test_local_restart_check():
    good = [(True, 1e-15, "compatible_measurements"), (True, 0.0, "product_state")]
    assert checks.check_local_restarts(good) == []
    assert checks.check_local_restarts(good + [(True, 1e-3, "product_state")])
    assert checks.check_local_restarts(good + [(True, 0.0, "violating")])


def test_kcbs_checks_reject_value_above_sqrt5():
    result = optimize.maximize_kcbs_qutrit(False, optimize.OptimizerConfig(restarts=3, seed=3))
    vectors = result.best_parameters["vectors"]
    assert checks.check_kcbs_vectors(vectors, False, result.best_value) == []
    assert checks.check_supremum([result.best_value], checks.KCBS_FREE_MAX, "kcbs") == []
    above = checks.KCBS_FREE_MAX + 1e-5
    assert checks.check_supremum([above], checks.KCBS_FREE_MAX, "kcbs")
    assert checks.check_close(above + 1e-4, checks.KCBS_FREE_MAX, 1e-4, "kcbs")
    assert checks.check_kcbs_vectors(vectors, False, above)


def test_kcbs_vector_check_rejects_broken_orthogonality():
    result = optimize.maximize_kcbs_qutrit(True, optimize.OptimizerConfig(restarts=3, seed=3))
    vectors = np.array(result.best_parameters["vectors"])
    assert checks.check_kcbs_vectors(vectors, True, result.best_value) == []
    vectors[1] = vectors[0]
    assert checks.check_kcbs_vectors(vectors, True, result.best_value)


def test_construction_check_recomputes_one_sixth():
    workload = workloads.GraphInvariants(0)
    out = workload._exact_pass()
    assert workloads.check_exact(out) == []
    vectors = dict(out["vectors"])
    num, den = vectors[1]
    vectors[1] = (((1, 0),) + num[1:], den)
    assert checks.check_construction(vectors, out["handle"])
    assert workloads.check_exact(dict(out, s_chsh=3))


def test_graph_family_is_seeded():
    names = [name for name, *_ in workloads.graph_family(5)]
    assert len(names) == len(set(names))
    edges = lambda seed: [g.edges for _, g, *_ in workloads.graph_family(seed)]  # noqa: E731
    assert edges(5) == edges(5)
    assert edges(5) != edges(6)


def test_tracing_does_not_perturb_results():
    def run():
        return (
            optimize.maximize_hardy_local(optimize.OptimizerConfig(restarts=2, seed=4)),
            graphs.lovasz_theta(graphs.complement(graphs.cycle_graph(7))),
        )

    untraced = run()
    tracer = tracing.Tracer()
    layers.wrap_timed(tracer)
    try:
        traced = run()
    finally:
        tracer.unwrap()
    op = workloads.Op("hardy", None, 2)
    assert workloads.LocalBound.fingerprint(op, untraced[0]) == workloads.LocalBound.fingerprint(op, traced[0])
    assert untraced[1].to_json() == traced[1].to_json()
    assert untraced[1].primal_certificate.tobytes() == traced[1].primal_certificate.tobytes()
    index = tracing.SpanIndex(tracer.spans)
    metrics = layers.per_layer(index, 0.0)
    assert metrics["optimize.bell_model.calls_per_restart"][0] > 0
    assert metrics["optimize.stage.count"][0] == 6
    assert metrics["graphs.alpha.calls"][0] == 1
    assert optimize.minimize.__module__.startswith("scipy")
    assert graphs.lovasz_theta.__module__ == "exclusivity.graphs"


def test_self_time_subtracts_direct_children():
    S = tracing.Span
    spans = [S("a", 0.0, 10.0, -1, 1, ()), S("b", 1.0, 4.0, 0, 1, ()), S("c", 2.0, 3.0, 1, 1, ()),
             S("b", 5.0, 6.0, 0, 1, ())]
    index = tracing.SpanIndex(spans)
    assert index.self_time("a") == pytest.approx(6.0)
    assert index.self_time("b") == pytest.approx(3.0)
    assert index.busy("b") == pytest.approx(4.0)
    assert index.enclosing(2, ("a",)) == "a"


def test_passes_must_reproduce_the_first():
    class Identity:
        failed = staticmethod(lambda op, result: 0)
        fingerprint = staticmethod(lambda op, result: result)

    drift = iter(range(10))
    ops = [workloads.Op("fixed", lambda: 1, 1), workloads.Op("drifting", lambda: next(drift), 1)]
    results, prints, times, failed, passes, _, errors = run.run_passes(
        Identity, ops, lambda count, _: count < 3, [])
    assert (results, prints, failed, passes) == ([1, 0], [1, 0], 0, 3)
    assert len(errors) == 2 and all(e.startswith("drifting") for e in errors)
    assert [len(t) for t in times] == [3, 3] and min(min(t) for t in times) > 0
    *_, traced_errors = run.run_passes(Identity, ops[:1], lambda count, _: count == 0, [],
                                       reference=[2])
    assert traced_errors == ["fixed call 0: pass 1 traced differs from the first pass"]
