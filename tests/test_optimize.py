import cmath
import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize

import exclusivity
from exclusivity import optimize, paradox, quantum
from exclusivity.optimize import (
    Classification,
    OptimizerConfig,
    _bell_amplitudes,
    _bell_evaluate,
    _bell_table_index,
    _maximize_bell_paradox,
    _pentagon_evaluate,
    _sample_bell_start,
    _spherical,
    _spherical_index,
    _state_and_derivatives,
    classify_local_model,
    maximize_chsh_paradox_local,
    maximize_hardy_local,
    maximize_kcbs_qutrit,
)
from exclusivity.quantum import BellLocalModel, bell_event_probabilities
from exclusivity.scenario import bell_222, bell_event, enumerate_events
from oracles import bell_probabilities

HARDY_MAX = (5 * math.sqrt(5) - 11) / 2
SMALL = OptimizerConfig(restarts=8, seed=11)


@pytest.fixture(scope="module")
def hardy_result():
    return maximize_hardy_local(SMALL)


@pytest.fixture(scope="module")
def chsh_result():
    return maximize_chsh_paradox_local(OptimizerConfig(restarts=8, seed=3))


class TestHardy:
    def test_reaches_known_maximum(self, hardy_result):
        assert hardy_result.feasible
        assert hardy_result.best_value == pytest.approx(HARDY_MAX, abs=1e-4)

    def test_residuals_below_tolerance(self, hardy_result):
        assert all(r <= 1e-8 for r in hardy_result.best_residuals.values())
        assert set(hardy_result.best_residuals) == {"(00|01)", "(00|10)", "(11|11)"}

    def test_forward_model_consistency(self, hardy_result):
        model = BellLocalModel.from_json(hardy_result.best_parameters["model"])
        probs = bell_event_probabilities(model, [bell_event("00|00")])
        assert abs(probs[0] - hardy_result.best_value) <= 1e-9

    def test_determinism(self):
        a = maximize_hardy_local(OptimizerConfig(restarts=3, seed=5))
        b = maximize_hardy_local(OptimizerConfig(restarts=3, seed=5))
        assert a.best_value == b.best_value
        assert a.best_raw == b.best_raw
        assert [s.value for s in a.restart_summaries] == [s.value for s in b.restart_summaries]

    def test_stage_values_monotone(self, hardy_result):
        for summary in hardy_result.restart_summaries:
            values = summary.stage_values
            for earlier, later in zip(values, values[1:]):
                assert later <= earlier + 1e-6


class TestChshParadox:
    def test_best_feasible_is_tiny(self, chsh_result):
        assert chsh_result.feasible
        assert chsh_result.best_value <= 1e-6

    def test_optima_classify_into_the_dichotomy(self, chsh_result):
        for summary in chsh_result.restart_summaries:
            if summary.feasible:
                assert summary.classification in (
                    Classification.COMPATIBLE_MEASUREMENTS,
                    Classification.PRODUCT_STATE,
                )

    def test_dropping_one_zero_makes_it_satisfiable(self):
        spec = paradox.chsh_paradox_spec()
        zeros = tuple(z for z in spec.zero_events if z != bell_event("11|10"))
        result = _maximize_bell_paradox(
            "chsh-minus-one-zero",
            spec.positive_events,
            zeros,
            OptimizerConfig(restarts=12, seed=7),
            classify_optimum=False,
        )
        assert result.feasible
        assert result.best_value > 0.05

    def test_polish_drives_zero_probabilities_to_the_floor(self, chsh_result, hardy_result):
        # the objective is read only after the polish has driven every zero
        # event far below the feasibility tolerance
        for result in (chsh_result, hardy_result):
            assert all(s.max_residual <= 1e-12 for s in result.restart_summaries)

    def test_json_payload(self, chsh_result):
        data = chsh_result.to_json()
        assert data["task"] == "chsh-paradox-local"
        assert data["feasible"] is True
        assert len(data["restarts"]) == 8
        assert data["classification"] in ("compatible_measurements", "product_state")
        for entry, summary in zip(data["restarts"], chsh_result.restart_summaries):
            assert entry["polish_evaluations"] == summary.polish_evaluations > 0
            assert entry["polish_status"] == summary.polish_status != 0


class TestAppendixDCheck:
    def test_compatible_measurements(self):
        model = BellLocalModel(a=0.6, b=0.0, c=0.8, d=0.0, theta_a1=0.0, theta_b1=1.0)
        assert classify_local_model(model) is Classification.COMPATIBLE_MEASUREMENTS

    def test_product_state(self):
        model = BellLocalModel(a=0.6, b=0.0, c=0.8, d=0.0, theta_a1=2.0, theta_b1=1.0)
        assert classify_local_model(model) is Classification.PRODUCT_STATE

    def test_precondition_unmet(self):
        # |11> amplitude makes P(11|00) large
        model = BellLocalModel(a=0.0, b=0.0, c=0.0, d=1.0)
        with pytest.raises(ValueError):
            classify_local_model(model)

    def test_violating_under_artificially_tight_branch(self):
        model = BellLocalModel(
            a=math.sqrt(1 - 0.25 - 1e-5), b=0.5, c=0.0, d=math.sqrt(1e-5),
            theta_a1=0.002, theta_b1=1.0,
        )
        # loose preconditions, unreasonably tight branch tolerance
        assert (
            classify_local_model(model, tol=1e-4, branch_tol=1e-12)
            is Classification.VIOLATING
        )

    def test_default_branch_tolerance_covers_the_guarantee(self):
        # sin(theta/2)*b at the precondition boundary still lands in a branch
        tol = 1e-8
        model = BellLocalModel(
            a=math.sqrt(1 - 1e-4), b=0.01, c=0.0, d=0.0,
            theta_a1=2 * math.asin(0.01), theta_b1=0.5,
        )
        assert classify_local_model(model, tol=tol) is not Classification.VIOLATING


class TestKcbs:
    def test_unconstrained_reaches_sqrt5(self):
        result = maximize_kcbs_qutrit(False, OptimizerConfig(restarts=10, seed=5))
        assert result.feasible
        assert result.best_value == pytest.approx(math.sqrt(5), abs=1e-4)

    def test_constrained_reaches_2_plus_ninth(self):
        result = maximize_kcbs_qutrit(True, OptimizerConfig(restarts=10, seed=5))
        assert result.feasible
        assert result.best_value == pytest.approx(2 + 1 / 9, abs=1e-3)

    @pytest.mark.parametrize("seed", [5, 11])
    def test_last_stage_runs_to_the_constrained_optimum(self, seed):
        # a stage that stops on relative decrease (L-BFGS-B's default ftol)
        # leaves the mu = 1e8 stage about 1e-4 short at these seeds
        result = maximize_kcbs_qutrit(True, OptimizerConfig(restarts=10, seed=seed))
        assert result.feasible
        assert result.best_value == pytest.approx(2 + 1 / 9, abs=1e-5)

    def test_dimension_one_infeasible(self):
        result = maximize_kcbs_qutrit(False, OptimizerConfig(restarts=2, seed=1), dimension=1)
        assert not result.feasible

    @pytest.mark.parametrize("constrained", [False, True])
    def test_dimension_one_reports_the_same_keys(self, constrained):
        config = OptimizerConfig(restarts=2, seed=1)
        one = maximize_kcbs_qutrit(constrained, config, dimension=1)
        three = maximize_kcbs_qutrit(constrained, config, dimension=3)
        assert one.best_residuals.keys() == three.best_residuals.keys()
        assert one.best_parameters.keys() == three.best_parameters.keys()
        assert len(one.best_residuals) == (7 if constrained else 5)

    def test_vectors_are_unit_and_cycle_orthogonal(self):
        result = maximize_kcbs_qutrit(False, OptimizerConfig(restarts=6, seed=9))
        vectors = [np.array(v) for v in result.best_parameters["vectors"]]
        for v in vectors:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        for i in range(5):
            assert abs(vectors[i] @ vectors[(i + 1) % 5]) <= 1e-6

    def test_value_matches_vectors(self):
        result = maximize_kcbs_qutrit(True, OptimizerConfig(restarts=6, seed=9))
        vectors = [np.array(v) for v in result.best_parameters["vectors"]]
        assert sum(v[0] ** 2 for v in vectors) == pytest.approx(result.best_value, abs=1e-9)


class TestUpperBounds:
    def test_kcbs_unconstrained_below_theta_of_pentagon(self):
        from exclusivity import graphs

        result = maximize_kcbs_qutrit(False, OptimizerConfig(restarts=8, seed=13))
        theta = graphs.lovasz_theta(graphs.cycle_graph(5))
        assert result.best_value <= theta.value + theta.duality_gap + 1e-4

    def test_hardy_below_quantum_graph_bound(self, hardy_result):
        # theta of the pentagon bounds the full five-event sum; the Hardy
        # value alone sits far below theta - 2
        from exclusivity import graphs

        theta = graphs.lovasz_theta(graphs.cycle_graph(5))
        assert hardy_result.best_value <= theta.value - 2 + 1e-6


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)
        with pytest.raises(ValueError, match="seed"):
            OptimizerConfig(seed=-1)

    @pytest.mark.parametrize("name", ["restarts", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, False, "3", None, np.int64(3)])
    def test_settings_must_be_ints(self, name, value):
        with pytest.raises(ValueError, match=name):
            OptimizerConfig(**{name: value})

    @pytest.mark.parametrize("dimension", [2.5, 3.0, True, 0, -1])
    def test_kcbs_dimension_must_be_a_positive_int(self, dimension):
        with pytest.raises(ValueError, match="dimension"):
            maximize_kcbs_qutrit(False, OptimizerConfig(restarts=1, seed=1), dimension=dimension)

    @pytest.mark.parametrize(
        "maximize",
        [
            maximize_hardy_local,
            maximize_chsh_paradox_local,
            lambda config: maximize_kcbs_qutrit(False, config),
            lambda config: maximize_kcbs_qutrit(True, config),
        ],
        ids=["hardy", "chsh", "kcbs-free", "kcbs-constrained"],
    )
    def test_restart_i_draws_from_seed_and_i(self, maximize):
        # the determinism contract: restart i does not depend on how many
        # restarts run after it
        three = maximize(OptimizerConfig(restarts=3, seed=17)).to_json()["restarts"]
        five = maximize(OptimizerConfig(restarts=5, seed=17)).to_json()["restarts"]
        assert three == five[:3]

    def test_only_restarts_and_seed_are_settable(self):
        assert [f.name for f in dataclasses.fields(OptimizerConfig)] == ["restarts", "seed"]
        assert optimize.PENALTY_SCHEDULE == (1e2, 1e5, 1e8)
        assert optimize.FEASIBILITY_TOL == 1e-8


class TestPolish:
    def test_each_point_runs_the_polish_model_once(self, monkeypatch):
        # residuals and Jacobian come from one call, so no point is
        # evaluated twice
        points = []
        multistart = optimize._multistart

        def logged_multistart(*args, polish_system, **kwargs):
            def logged(x):
                points.append(np.array(x))
                return polish_system(x)

            return multistart(*args, polish_system=logged, **kwargs)

        monkeypatch.setattr(optimize, "_multistart", logged_multistart)
        maximize_hardy_local(OptimizerConfig(restarts=2, seed=5))
        assert len(points) > 2
        assert not any(np.array_equal(a, b) for a, b in zip(points, points[1:]))

    @pytest.mark.parametrize(
        "maximize, mean_evaluations",
        [
            (maximize_hardy_local, 5),
            (maximize_chsh_paradox_local, 30),
            (lambda config: maximize_kcbs_qutrit(False, config), 3),
            (lambda config: maximize_kcbs_qutrit(True, config), 12),
        ],
        ids=["hardy", "chsh", "kcbs-free", "kcbs-constrained"],
    )
    def test_polish_evaluations_per_task(self, monkeypatch, maximize, mean_evaluations):
        # at this seed the polish takes 3, 24.5, 2 and 9.9 evaluations a
        # restart on average
        results = []
        polish = optimize._polish

        def recorded(*args):
            results.append(polish(*args))
            return results[-1]

        monkeypatch.setattr(optimize, "_polish", recorded)
        result = maximize(OptimizerConfig(restarts=10, seed=5))
        evaluations = [r[1] for r in results]
        assert len(evaluations) == 10
        assert np.mean(evaluations) <= mean_evaluations
        assert max(evaluations) < optimize.POLISH_MAX_EVALUATIONS
        assert [s.polish_evaluations for s in result.restart_summaries] == evaluations
        assert [s.polish_status for s in result.restart_summaries] == [r[2] for r in results]

    def test_polish_reaches_a_zero(self):
        # one linear residual in two parameters: the minimum-norm direction
        def system(x):
            return np.array([x[0] + 2.0 * x[1] - 3.0]), np.array([[1.0, 2.0]])

        x, evaluations, status = optimize._polish(system, np.zeros(2))
        assert abs(system(x)[0][0]) <= 1e-15
        assert status != 0 and evaluations <= 10
        assert x == pytest.approx([0.6, 1.2])

    def test_polish_without_a_zero_stops_below_the_cap(self):
        # |r|^2 = 2 + 2 x^2 is smallest at x = 0, where r = (-1, 1)
        def system(x):
            return np.array([x[0] - 1.0, x[0] + 1.0]), np.ones((2, 1))

        x, evaluations, status = optimize._polish(system, np.ones(1))
        assert status == 2
        assert evaluations < optimize.POLISH_MAX_EVALUATIONS
        assert abs(x[0]) <= 1e-7

    def test_polish_towards_an_unattained_infimum_stops_at_the_cap(self):
        # r = e^x tends to 0 only as x -> -inf: each step lowers |r|^2
        def system(x):
            return np.exp(x), np.exp(x)[:, None]

        x, evaluations, status = optimize._polish(system, np.zeros(1))
        assert (evaluations, status) == (optimize.POLISH_MAX_EVALUATIONS, 0)
        assert x[0] < -10.0

    def test_stage_record_matches_minimize(self, monkeypatch):
        # constrained KCBS at seed 6: with scipy 1.17.1 two of the twelve
        # stages end with L-BFGS-B status 2, so nonzero statuses are covered
        results = []
        minimize = optimize.minimize

        def recorded(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(optimize, "minimize", recorded)
        result = maximize_kcbs_qutrit(True, OptimizerConfig(restarts=4, seed=6))
        assert len(results) == 3 * 4
        entries = result.to_json()["restarts"]
        for k, (summary, entry) in enumerate(zip(result.restart_summaries, entries)):
            stages = results[3 * k : 3 * k + 3]
            assert summary.stage_iterations == tuple(r.nit for r in stages)
            assert summary.stage_evaluations == tuple(r.nfev for r in stages)
            assert summary.stage_statuses == tuple(r.status for r in stages)
            assert entry["stages"] == [
                {"value": v, "iterations": r.nit, "evaluations": r.nfev, "status": r.status}
                for v, r in zip(summary.stage_values, stages)
            ]

    @pytest.mark.parametrize("seed", range(5))
    def test_repeat_calls_are_bit_identical(self, seed):
        # a polish by Levenberg-Marquardt on zero-padded rows gave two
        # different answers from one start at these seeds
        config = OptimizerConfig(restarts=14, seed=seed)
        first, second = (maximize_kcbs_qutrit(True, config) for _ in range(2))
        assert first.to_json() == second.to_json()
        assert first.best_raw == second.best_raw
        assert [s.stage_values for s in first.restart_summaries] == [
            s.stage_values for s in second.restart_summaries
        ]


# imports every module of the package, runs the commands that never
# optimize, then touches the solver; prints whether scipy.optimize was loaded
# before and after
LAZY_IMPORT_SCRIPT = """
import importlib, pkgutil, sys
import exclusivity
names = [info.name for info in pkgutil.iter_modules(exclusivity.__path__)]
assert {"cli", "graphs", "optimize", "paradox"} <= set(names), names
for name in names:
    importlib.import_module("exclusivity." + name)
from exclusivity import cli, optimize
for argv in (["graph", "pentagon"], ["verify", "construction", "chsh-contextual"],
             ["inequality", "chsh"]):
    assert cli.main(argv) == 0, argv
print("scipy.optimize" in sys.modules)
optimize.minimize
print("scipy.optimize" in sys.modules)
"""


class TestLazyScipy:
    def test_commands_that_never_optimize_do_not_load_scipy_optimize(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(exclusivity.__file__)))
        run = subprocess.run(
            [sys.executable, "-c", LAZY_IMPORT_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        *_, before, after = run.stdout.splitlines()
        assert before == "False"
        assert after == "True"

    def test_first_access_gives_scipys_solvers(self, monkeypatch):
        for name in ("minimize", "least_squares"):
            monkeypatch.delitem(vars(optimize), name, raising=False)
        assert optimize.minimize is scipy.optimize.minimize
        assert optimize.least_squares is scipy.optimize.least_squares
        with pytest.raises(AttributeError):
            optimize.no_such_solver

    def test_wrapper_set_before_first_use_is_called(self, monkeypatch):
        # the hook loads scipy.optimize on first access and must leave the
        # wrapper on minimize in place
        for name in ("minimize", "least_squares"):
            monkeypatch.delitem(vars(optimize), name, raising=False)
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(args[1])
            return scipy.optimize.minimize(*args, **kwargs)

        monkeypatch.setitem(vars(optimize), "minimize", wrapper)
        maximize_hardy_local(OptimizerConfig(restarts=2, seed=5))
        assert len(calls) == 3 * 2
        assert optimize.minimize is wrapper
        assert optimize.least_squares is scipy.optimize.least_squares


def assert_matches_central_differences(analytic, f, x, h=1e-6, tol=1e-8):
    """``analytic`` is d f / d x_p stacked on the last axis."""
    numeric = np.stack([(f(x + h * e) - f(x - h * e)) / (2 * h) for e in np.eye(len(x))], axis=-1)
    assert np.max(np.abs(analytic - numeric)) <= tol


def scalar_setting_kets(theta, phi):
    """``quantum._setting_kets`` entry by entry, in scalar arithmetic."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    e = cmath.exp(1j * phi)
    ec = e.conjugate()
    return np.array(
        [
            1, 0, c, s * e, 0, -1, s * ec, -c,
            0, 0, -s / 2, c / 2 * e, 0, 0, c / 2 * ec, s / 2,
            0, 0, 0, 1j * s * e, 0, 0, -1j * s * ec, 0,
        ],
        dtype=complex,
    ).reshape(3, 4, 2)


def scalar_state_and_derivatives(x):
    """``optimize._state_and_derivatives`` entry by entry, in scalar arithmetic."""
    s1, s2, s3 = math.sin(x[0]), math.sin(x[1]), math.sin(x[2])
    c1, c2, c3 = math.cos(x[0]), math.cos(x[1]), math.cos(x[2])
    phase = cmath.exp(1j * x[3])
    s12 = s1 * s2
    d = s12 * s3 * phase
    return np.array(
        [
            c1, s1 * c2, s12 * c3, d,
            -s1, c1 * c2, c1 * s2 * c3, c1 * s2 * s3 * phase,
            0, -s12, s1 * c2 * c3, s1 * c2 * s3 * phase,
            0, 0, -s12 * s3, s12 * c3 * phase,
            0, 0, 0, 1j * d,
        ],
        dtype=complex,
    ).reshape(5, 4)


class TestClosedFormJacobians:
    EVENTS = enumerate_events(bell_222())

    def test_factor_tables_equal_the_scalar_tables(self):
        # the gathered products multiply the same factors in the same order
        # as the scalar formulas, so the tables agree bit for bit
        index = _bell_table_index(self.EVENTS)
        rng = np.random.default_rng(20241)
        for _ in range(200):
            x = _sample_bell_start(rng)
            alice, bob = scalar_setting_kets(x[4], x[5]), scalar_setting_kets(x[6], x[7])
            psi = scalar_state_and_derivatives(x)
            table = (alice.reshape(12, 2) @ psi.reshape(5, 2, 2).conj()) @ bob.reshape(12, 2).T
            assert np.array_equal(quantum._setting_kets(x[4], x[5]), alice)
            assert np.array_equal(_state_and_derivatives(x), psi)
            assert np.array_equal(_bell_amplitudes(x, index), table.take(index))

    def test_two_qubit_probabilities_match_forward_model(self):
        index = _bell_table_index(self.EVENTS)
        rng = np.random.default_rng(20240)
        for _ in range(20):
            x = _sample_bell_start(rng)
            amplitudes = _bell_amplitudes(x, index)[:, 0]
            psi = tuple(complex(z) for z in _state_and_derivatives(x)[0])
            expected = bell_probabilities(psi, x[4], x[5], x[6], x[7], self.EVENTS)
            assert np.max(np.abs(np.abs(amplitudes) ** 2 - expected)) <= 1e-15

    def test_two_qubit_amplitude_jacobian(self):
        index = _bell_table_index(self.EVENTS)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = _sample_bell_start(rng)
            jacobian = _bell_amplitudes(x, index)[:, 1:]
            assert_matches_central_differences(
                jacobian, lambda y: _bell_amplitudes(y, index)[:, 0], x
            )

    def test_two_qubit_value_and_residual_derivatives(self):
        index = _bell_table_index(self.EVENTS)
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = _sample_bell_start(rng)
            _, gradient, _, jacobian = _bell_evaluate(x, index, 2)
            assert_matches_central_differences(
                gradient, lambda y: _bell_evaluate(y, index, 2)[0], x
            )
            assert_matches_central_differences(
                jacobian, lambda y: _bell_evaluate(y, index, 2)[2], x
            )

    def test_event_rows_do_not_depend_on_the_other_events(self):
        # the polish evaluates only the zero events, index[n_pos:]
        index = _bell_table_index(self.EVENTS)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = _sample_bell_start(rng)
            full = _bell_amplitudes(x, index)
            order = rng.permutation(len(self.EVENTS))
            for rows in (order, order[:5], np.arange(2, 16)):
                assert np.array_equal(_bell_amplitudes(x, index[rows]), full[rows])
                events = [self.EVENTS[r] for r in rows]
                assert np.array_equal(_bell_amplitudes(x, _bell_table_index(events)), full[rows])

    @pytest.mark.parametrize("dimension", [2, 3, 4, 6])
    @pytest.mark.parametrize("constrained", [False, True])
    def test_pentagon_derivatives(self, dimension, constrained):
        index = _spherical_index(dimension - 1)
        rng = np.random.default_rng(dimension)
        for _ in range(5):
            x = rng.uniform(0.0, 2 * math.pi, 5 * (dimension - 1))
            _, gradient, residuals, jacobian = _pentagon_evaluate(x, index, constrained)
            assert residuals.shape == (7 if constrained else 5,)
            assert jacobian.shape == (len(residuals), len(x))
            assert_matches_central_differences(
                gradient, lambda y: _pentagon_evaluate(y, index, constrained)[0], x
            )
            assert_matches_central_differences(
                jacobian, lambda y: _pentagon_evaluate(y, index, constrained)[2], x
            )

    def test_qutrit_vectors_match_the_spherical_formula(self):
        angles = np.random.default_rng(4).uniform(0.0, 2 * math.pi, (5, 2))
        vectors = _spherical(angles, _spherical_index(2))[:, 0]
        for (t0, t1), v in zip(angles, vectors):
            expected = [math.cos(t0), math.sin(t0) * math.cos(t1), math.sin(t0) * math.sin(t1)]
            assert v.tolist() == pytest.approx(expected, abs=1e-15)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
