import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from exclusivity import classical, cli, graphs, optimize, quantum, scenario
from exclusivity.cli import main
from builders import behavior_from_strategy


def run(tmp_path, *args, out_name="report.json"):
    out = tmp_path / out_name
    code = main([*args, "--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


class TestGraphCommand:
    def test_pentagon(self, tmp_path):
        code, report = run(tmp_path, "graph", "pentagon")
        assert code == 0
        results = report["results"]
        assert results["vertices"] == 5 and results["edges"] == 5
        assert results["independence_number"] == 2
        assert results["lovasz_theta"]["value"] == pytest.approx(math.sqrt(5), abs=1e-5)
        assert len(results["odd_holes_5"]) == 1

    def test_chsh(self, tmp_path):
        code, report = run(tmp_path, "graph", "chsh")
        assert code == 0
        results = report["results"]
        assert results["vertices"] == 8 and results["edges"] == 12
        assert results["independence_number"] == 3
        assert results["lovasz_theta"]["value"] == pytest.approx(2 + math.sqrt(2), abs=1e-5)

    def test_222(self, tmp_path):
        code, report = run(tmp_path, "graph", "2-2-2")
        assert code == 0
        results = report["results"]
        assert results["vertices"] == 16 and results["edges"] == 56

    def test_contextual(self, tmp_path):
        code, report = run(tmp_path, "graph", "chsh-contextual")
        assert code == 0
        assert report["results"]["edges"] == 12

    def test_scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario.scenario_to_json(scenario.bell_222())))
        code, report = run(tmp_path, "graph", "--scenario-file", str(path))
        assert code == 0
        assert report["results"]["vertices"] == 16

    def test_closed_sandwich_is_reported(self, tmp_path, capsys):
        code, report = run(tmp_path, "graph", "2-2-2")
        assert code == 0
        theta = report["results"]["lovasz_theta"]
        assert theta["stop"] == "clique_cover" and theta["duality_gap"] == 0.0
        assert "exact: alpha meets a clique cover" in capsys.readouterr().out
        _, pentagon = run(tmp_path, "graph", "pentagon", out_name="pentagon.json")
        assert pentagon["results"]["lovasz_theta"]["stop"] == "gap"
        assert "exact:" not in capsys.readouterr().out

    def test_theta_left_out_above_16_vertices_is_said(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario.scenario_to_json(scenario.bell_scenario((3, 2)))))
        code, report = run(tmp_path, "graph", "--scenario-file", str(path))
        assert code == 0
        results = report["results"]
        assert results["vertices"] == 24 and results["independence_number"] == 6
        assert results["lovasz_theta"] is None
        assert results["lovasz_theta_skipped"] == "24 vertices > 16"
        assert "lovasz theta: not computed (24 vertices > 16)" in capsys.readouterr().out

    def test_unknown_builtin(self, tmp_path):
        assert main(["graph", "nonsense"]) == 2

    def test_invalid_scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"parties": 2, "measurements": [{"id": "A0"}], "contexts": []}))
        assert main(["graph", "--scenario-file", str(path)]) == 2

    @pytest.mark.parametrize(
        "contexts, message",
        [([["A0", "A0"]], "repeats a measurement"), ([["A0"], ["A0"]], "listed twice")],
    )
    def test_repeated_measurement_or_context_is_an_input_error(
        self, tmp_path, capsys, contexts, message
    ):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(
            {"parties": 1, "measurements": [{"id": "A0", "party": 0}], "contexts": contexts}
        ))
        assert main(["graph", "--scenario-file", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_oversize_scenario_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario.scenario_to_json(scenario.bell_scenario((3, 3)))))
        assert main(["graph", "--scenario-file", str(path)]) == 2
        assert "<= 32 vertices" in capsys.readouterr().err

    def test_scenario_events_are_counted_before_the_graph_is_built(
        self, tmp_path, monkeypatch, capsys
    ):
        # five parties used to take seconds of pair tests to reach the cap
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario.scenario_to_json(scenario.bell_scenario((2,) * 5))))

        def fail(*args):
            raise AssertionError("the graph was built")

        monkeypatch.setattr(scenario, "build_exclusivity_graph", fail)
        assert main(["graph", "--scenario-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert "1024 events" in err and "<= 32 vertices" in err

    @pytest.mark.parametrize("field", ["parties", "num_outcomes"])
    def test_overflowing_scenario_number_is_an_input_error(self, tmp_path, field):
        data = scenario.scenario_to_json(scenario.bell_222())
        (data if field == "parties" else data["measurements"][0])[field] = "HUGE"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data).replace('"HUGE"', "1e400"))
        assert main(["graph", "--scenario-file", str(path)]) == 2

    def test_theta_cap_is_read_from_graphs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graphs, "THETA_MAX_VERTICES", 7)
        code, report = run(tmp_path, "graph", "chsh")
        assert code == 0 and report["results"]["lovasz_theta_skipped"] == "8 vertices > 7"

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "1e-8"])
    def test_tolerance_outside_theta_range(self, capsys, tol):
        # --tol inf used to print theta = 4 with gap 4 for the pentagon, and
        # --tol 0 silently became the default
        assert main(["graph", "pentagon", "--tol", tol]) == 2
        assert "--tol must be" in capsys.readouterr().err

    def test_tolerance_is_passed_through(self, tmp_path):
        code, report = run(tmp_path, "graph", "pentagon", "--tol", "1e-3")
        assert code == 0
        assert report["results"]["lovasz_theta"]["duality_gap"] <= 1e-3

    def test_numerical_failure_is_not_an_input_error(self, monkeypatch):
        # LinAlgError subclasses ValueError, but it means the computation failed
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(graphs, "lovasz_theta", fail)
        assert main(["graph", "pentagon"]) == 1

    def test_value_error_inside_a_computation_is_not_an_input_error(self, monkeypatch):
        # only input boundaries raise InputError (exit 2); a ValueError from
        # the computation itself is a bug and propagates
        def fail(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr(graphs, "find_odd_holes", fail)
        with pytest.raises(ValueError, match="internal failure"):
            main(["graph", "pentagon"])


class TestVerifyCommand:
    def test_construction_contextual(self, tmp_path):
        code, report = run(tmp_path, "verify", "construction", "chsh-contextual")
        assert code == 0
        assert report["results"]["report"]["verified"] is True
        assert report["results"]["report"]["p_hardy"] == "1/6"

    def test_construction_bell_chsh(self, tmp_path):
        code, report = run(tmp_path, "verify", "construction-bell", "chsh")
        assert code == 0
        assert report["results"]["report"]["verified"] is True

    def test_deterministic_behavior_rejected(self, tmp_path):
        strategy = classical.enumerate_deterministic(scenario.bell_222())[5]
        behavior = behavior_from_strategy(strategy, scenario.bell_222())
        path = tmp_path / "behavior.json"
        path.write_text(json.dumps(classical.behavior_to_json(behavior)))
        code, report = run(tmp_path, "verify", str(path), "chsh")
        assert code == 0
        assert report["results"]["report"]["verified"] is False
        assert report["results"]["report"]["p_hardy_float"] == 0.0

    def test_malformed_behavior_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["verify", str(path), "chsh"]) == 2

    def test_invalid_behavior_content(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({"scenario": {}, "probabilities": []}))
        assert main(["verify", str(path), "chsh"]) == 2

    @pytest.mark.parametrize("probability", ["1/0", "1e400"])
    def test_unreadable_probability_is_an_input_error(self, tmp_path, capsys, probability):
        data = classical.behavior_to_json(quantum.construction_bell_behavior())
        data["probabilities"][0][1] = probability
        path = tmp_path / "behavior.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path), "chsh"]) == 2
        assert "invalid behavior file" in capsys.readouterr().err

    @pytest.mark.parametrize("num_outcomes", [20000, 10**12])
    def test_declared_outcomes_do_not_set_the_cost(self, tmp_path, capsys, num_outcomes):
        # one event given of a measurement that declares num_outcomes: the
        # check counts the context's events instead of listing them
        measurement = {"id": "M", "party": 0, "num_outcomes": num_outcomes}
        data = {
            "scenario": {"parties": 1, "measurements": [measurement], "contexts": [["M"]]},
            "probabilities": [[[["M", 0]], 1]],
        }
        path = tmp_path / "behavior.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path), "hardy"]) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 1024
        assert f"misses {num_outcomes - 1} of the {num_outcomes} events" in err
        assert "the first (1|M)" in err

    @pytest.mark.parametrize(
        "command", [["verify", "{}", "chsh"], ["inequality", "chsh", "--behavior", "{}"]]
    )
    def test_event_in_no_context_is_an_input_error(self, tmp_path, capsys, command):
        data = classical.behavior_to_json(quantum.construction_bell_behavior())
        data["probabilities"].append([[["A0", 0]], 0.9])
        path = tmp_path / "behavior.json"
        path.write_text(json.dumps(data))
        assert main([arg.format(path) for arg in command]) == 2
        assert "is in no context" in capsys.readouterr().err

    def test_unknown_spec(self, tmp_path):
        assert main(["verify", "construction", "nope"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_invalid_tolerance(self, capsys, tol):
        # each used to exit 0 with verified = False
        assert main(["verify", "construction", "chsh-contextual", "--tol", tol]) == 2
        assert "--tol must be" in capsys.readouterr().err

    def test_zero_tolerance_asks_for_exact_zeros(self, tmp_path):
        code, report = run(tmp_path, "verify", "construction", "chsh-contextual", "--tol", "0")
        assert code == 0
        assert report["results"]["report"]["verified"] is True
        assert report["results"]["report"]["tolerance"] == 0


class TestOptimizeCommand:
    def test_hardy_small(self, tmp_path):
        code, report = run(
            tmp_path, "optimize", "hardy-local", "--restarts", "3", "--seed", "4"
        )
        assert code == 0
        results = report["results"]
        assert results["feasible"] is True
        assert results["best_value"] == pytest.approx(0.09016994, abs=1e-3)
        assert results["config"]["restarts"] == 3
        assert results["config"] == {"restarts": 3, "seed": 4}

    def test_kcbs_dimension_one_nonconvergent(self, tmp_path):
        code, report = run(
            tmp_path, "optimize", "kcbs-qutrit", "--dimension", "1", "--restarts", "2"
        )
        assert code == 1
        assert report["results"]["feasible"] is False

    def test_kcbs_constrained(self, tmp_path):
        code, report = run(
            tmp_path, "optimize", "kcbs-qutrit", "--constrained",
            "--restarts", "6", "--seed", "3",
        )
        assert code == 0
        assert report["results"]["best_value"] == pytest.approx(2 + 1 / 9, abs=1e-2)
        assert report["results"]["task"] == "kcbs-qutrit-constrained"

    def test_unknown_task(self, tmp_path):
        assert main(["optimize", "warp-drive"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "hardy-local", "--restarts", "0"],
            ["optimize", "hardy-local", "--seed", "-1"],
            ["optimize", "kcbs-qutrit", "--dimension", "0"],
            ["tables", "--restarts", "0"],
        ],
    )
    def test_invalid_settings_are_input_errors(self, argv):
        assert main(argv) == 2

    def test_summary_counts_stages_with_nonzero_status(self, monkeypatch, capsys):
        minimize = optimize.minimize
        calls = []

        def every_other_stage_at_cap(*args, **kwargs):
            result = minimize(*args, **kwargs)
            calls.append(result)
            if len(calls) % 2:
                result.status = 1
            return result

        monkeypatch.setattr(optimize, "minimize", every_other_stage_at_cap)
        assert main(["optimize", "hardy-local", "--restarts", "2", "--seed", "4"]) == 0
        assert "3 of 6 stages stopped with nonzero status" in capsys.readouterr().out

    def test_summary_counts_polishes_stopped_at_the_cap(self, monkeypatch, capsys):
        # CHSH-local polishes take about 25 evaluations, Hardy's 3
        monkeypatch.setattr(optimize, "POLISH_MAX_EVALUATIONS", 4)
        assert main(["optimize", "chsh-paradox-local", "--restarts", "2", "--seed", "4"]) == 0
        assert "2 of 2 polishes stopped at the evaluation cap" in capsys.readouterr().out
        assert main(["optimize", "hardy-local", "--restarts", "2", "--seed", "4"]) == 0
        assert "polishes stopped" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "task, function, restarts",
        [
            ("hardy-local", "maximize_hardy_local", 200),
            ("chsh-paradox-local", "maximize_chsh_paradox_local", 1000),
            ("kcbs-qutrit", "maximize_kcbs_qutrit", 100),
        ],
    )
    def test_default_restarts_are_the_library_defaults(
        self, monkeypatch, task, function, restarts
    ):
        received = []

        def stub(*args, config=None, **kwargs):
            config = config or args[-1]
            received.append(config)
            return SimpleNamespace(to_json=lambda: {
                "task": task, "best_value": 0.0, "feasible": True,
                "restarts_completed": config.restarts,
            })

        monkeypatch.setattr(optimize, function, stub)
        assert main(["optimize", task]) == 0
        assert received == [optimize.OptimizerConfig(restarts=restarts, seed=20240)]

    def test_task_table_covers_the_library_tasks(self):
        assert cli.OPTIMIZE_TASKS.keys() == optimize.DEFAULT_CONFIGS.keys()

    def test_determinism_of_payload(self, tmp_path):
        _, first = run(tmp_path, "optimize", "hardy-local", "--restarts", "2", "--seed", "9",
                       out_name="a.json")
        _, second = run(tmp_path, "optimize", "hardy-local", "--restarts", "2", "--seed", "9",
                        out_name="b.json")
        assert first["results"] == second["results"]
        assert first["inputs_digest"] == second["inputs_digest"]


class TestInequalityCommand:
    def test_chsh_default_behavior(self, tmp_path):
        code, report = run(tmp_path, "inequality", "chsh")
        assert code == 0
        rep = report["results"]["report"]
        assert rep["value"] == "19/6"
        assert rep["violated"] is True

    def test_chsh_correlator(self, tmp_path):
        code, report = run(tmp_path, "inequality", "chsh-correlator")
        assert code == 0
        rep = report["results"]["report"]
        assert rep["value"] == "-7"
        assert rep["violated"] is True
        assert rep["nchv_bound"] == -6

    def test_kcbs_on_tsirelson(self, tmp_path):
        code, report = run(tmp_path, "inequality", "kcbs", "--behavior", "tsirelson")
        assert code == 0
        assert report["results"]["report"]["violated"] is False

    def test_unknown_name(self):
        assert main(["inequality", "everything"]) == 2

    @pytest.mark.parametrize("name", ["chsh", "kcbs", "chsh-correlator"])
    def test_behavior_missing_events(self, tmp_path, name):
        # the contextual behavior lacks the 2-2-2 events, and the Bell one
        # lacks the contextual events
        behavior = "construction-bell" if name == "chsh-correlator" else "construction"
        assert main(["inequality", name, "--behavior", behavior]) == 2


class TestTablesCommand:
    def test_small_budget_tables(self, tmp_path):
        code, report = run(tmp_path, "tables", "--restarts", "6", "--seed", "2")
        assert code == 0
        results = report["results"]
        hierarchy = results["hierarchy"]
        assert hierarchy["classical"] == 0
        assert hierarchy["entangled_measurements"] == "1/6"
        assert hierarchy["local_measurements"] <= 1e-6
        rows = {row["paradox"]: row for row in results["comparison"]}
        assert rows["chsh"]["dimension"] == 4 and rows["chsh"]["measurements"] == 8
        assert rows["pentagon-qutrit"]["p_hardy_float"] == pytest.approx(1 / 9, abs=1e-3)
        assert rows["hardy"]["p_hardy_float"] == pytest.approx(0.09017, abs=1e-3)
        assert results["config"] == {"restarts": 6, "seed": 2}

    def test_infeasible_run_prints_the_table_and_exits_1(self, monkeypatch, capsys):
        real = optimize.maximize_kcbs_qutrit

        def infeasible(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), feasible=False)

        monkeypatch.setattr(optimize, "maximize_kcbs_qutrit", infeasible)
        assert main(["tables", "--restarts", "2", "--seed", "1"]) == 1
        rows = [line for line in capsys.readouterr().out.splitlines() if "pentagon-qutrit" in line]
        assert len(rows) == 1 and "infeasible" in rows[0]

    def test_versions_and_digest_present(self, tmp_path):
        code, report = run(tmp_path, "graph", "pentagon")
        assert code == 0
        assert "exclusivity" in report["versions"]
        assert len(report["inputs_digest"]) == 16

    def test_json_flag_prints_payload(self, capsys):
        assert main(["graph", "pentagon", "--json"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["command"] == "graph"
        assert report["results"]["independence_number"] == 2


class TestOptionsPerSubcommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "hardy-local", "--tol", "1e-3"],
            ["tables", "--tol", "1e-3"],
            ["graph", "chsh", "--seed", "1"],
            ["verify", "construction", "chsh", "--restarts", "5"],
            ["inequality", "chsh", "--tol", "1e-3"],
        ],
    )
    def test_ignored_options_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments" in err


class TestUnreadableFiles:
    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "--scenario-file", "{dir}/missing.json"],
            ["graph", "--scenario-file", "{dir}"],
            ["verify", "{dir}", "hardy"],
            ["graph", "--scenario-file", "{dir}/latin1.json"],
            ["verify", "{dir}/latin1.json", "hardy"],
            ["graph", "--scenario-file", "{dir}/deep.json"],
            ["graph", "--scenario-file", "{dir}/long_number.json"],
            ["graph", "pentagon", "--out", "{dir}/missing/report.json"],
            ["graph", "pentagon", "--out", "{dir}"],
        ],
    )
    def test_is_an_input_error(self, tmp_path, capsys, argv):
        (tmp_path / "latin1.json").write_bytes('{"parties": "\u00e9"}'.encode("latin-1"))
        (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
        (tmp_path / "long_number.json").write_text("[1" + "0" * 5000 + "]")
        assert main([a.format(dir=tmp_path) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err


class TestHumanSummaries:
    """The exact stdout of the commands that run no optimizer."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["graph", "pentagon"],
                """\
exclusivity graph
  pentagon: 5 vertices, 5 edges
  independence number alpha = 2, witness [0, 13]
  lovasz theta = 2.2360680 (gap 1.9e-08)
  pentagons (induced 5-holes): 1
""",
            ),
            (
                ["graph", "chsh"],
                """\
exclusivity graph
  chsh: 8 vertices, 12 edges
  independence number alpha = 3, witness [1, 5, 9]
  lovasz theta = 3.4142136 (gap 5.2e-09)
  pentagons (induced 5-holes): 8
""",
            ),
            (
                ["verify", "construction", "chsh-contextual"],
                """\
exclusivity verify
  spec chsh-contextual: verified = True
  p_hardy = 1/6 (0.166667)
  saturation 0: |sum - 1| = 0
  saturation 1: |sum - 1| = 0
  saturation 2: |sum - 1| = 0
""",
            ),
            (
                ["inequality", "chsh"],
                """\
exclusivity inequality
  chsh: value 19/6 vs bound 3
  violated = True
""",
            ),
            (
                ["inequality", "chsh-correlator"],
                """\
exclusivity inequality
  chsh-correlator: value -7 vs bound -6
  violated = True
""",
            ),
        ],
    )
    def test_stdout(self, capsys, argv, expected):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
