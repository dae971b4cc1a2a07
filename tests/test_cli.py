import json
import math

import numpy as np
import pytest

from exclusivity import classical, graphs, scenario
from exclusivity.cli import main


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

    def test_unknown_builtin(self, tmp_path):
        assert main(["graph", "nonsense"]) == 2

    def test_numerical_failure_is_not_an_input_error(self, monkeypatch):
        # LinAlgError subclasses ValueError, but it means the computation failed
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(graphs, "lovasz_theta", fail)
        assert main(["graph", "pentagon"]) == 1


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
        behavior = classical.behavior_from_strategy(strategy, scenario.bell_222())
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

    def test_unknown_spec(self, tmp_path):
        assert main(["verify", "construction", "nope"]) == 2


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
