"""Command line front end.

Subcommands::

    graph       builtin name or scenario file -> graph JSON + invariants
    verify      behavior (file or builtin) against a paradox spec
    optimize    hardy-local | chsh-paradox-local | kcbs-qutrit
    inequality  chsh | kcbs | chsh-correlator on a behavior
    tables      regenerate the resource-hierarchy and comparison tables

Every run prints a human summary; ``--json`` prints the full machine
payload instead, and ``--out FILE`` writes it to disk either way.  Exit
codes: 0 ok, 1 non-convergence or numerical failure, 2 input error.
Values with an exact rational form are printed as fraction and decimal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import __version__, classical, graphs, inequalities, optimize, paradox, quantum, scenario


class InputError(Exception):
    """Bad user input: unknown name, unreadable file, failed validation."""


def _fmt(value) -> str:
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        frac = Fraction(value)
        if frac.denominator == 1:
            return f"{frac.numerator}"
        return f"{frac} = {float(frac):.6f}"
    return f"{float(value):.6f}"


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except json.JSONDecodeError as err:
        raise InputError(f"malformed JSON in {path}: {err}")


BUILTIN_GRAPHS = ("2-2-2", "chsh", "pentagon", "chsh-contextual")


def _builtin_graph(name: str) -> scenario.ExclusivityGraph:
    if name == "2-2-2":
        return scenario.build_exclusivity_graph(scenario.bell_222())
    if name == "chsh":
        return scenario.chsh_event_graph()
    if name == "pentagon":
        return scenario.pentagon_event_graph()
    if name == "chsh-contextual":
        return quantum.contextual_chsh_graph()
    raise InputError(f"unknown builtin graph {name!r}; choose from {BUILTIN_GRAPHS}")


def _builtin_behavior(name: str) -> classical.Behavior:
    if name == "construction":
        return quantum.contextual_behavior(quantum.chsh_construction())
    if name == "construction-bell":
        return quantum.construction_bell_behavior()
    if name == "tsirelson":
        return inequalities.tsirelson_counterexample()
    raise InputError(
        f"unknown builtin behavior {name!r}; choose construction, construction-bell, tsirelson"
    )


def _resolve_behavior(ref: str) -> classical.Behavior:
    if Path(ref).exists():
        try:
            return classical.behavior_from_json(_load_json(ref))
        except (KeyError, ValueError) as err:
            raise InputError(f"invalid behavior file {ref}: {err}")
    return _builtin_behavior(ref)


def cmd_graph(args) -> dict:
    if args.scenario_file:
        graph = scenario.build_exclusivity_graph(
            scenario.scenario_from_json(_load_json(args.scenario_file))
        )
        name = args.scenario_file
    else:
        graph = _builtin_graph(args.name)
        name = args.name
    alpha, witness = graphs.independence_number(graph)
    payload = {
        "name": name,
        "graph": scenario.graph_to_json(graph),
        "vertices": graph.n,
        "edges": len(graph.edges),
        "independence_number": alpha,
        "independence_witness": sorted(witness),
        "odd_holes_5": [list(h) for h in graphs.find_odd_holes(graph, 5)],
    }
    if graph.n <= 16:
        theta = graphs.lovasz_theta(graph, accuracy=args.tol or 1e-7)
        payload["lovasz_theta"] = theta.to_json()
    return payload


def cmd_verify(args) -> dict:
    behavior = _resolve_behavior(args.behavior)
    if args.spec not in paradox.BUILTIN_SPECS:
        raise InputError(
            f"unknown spec {args.spec!r}; choose from {sorted(paradox.BUILTIN_SPECS)}"
        )
    spec = paradox.BUILTIN_SPECS[args.spec]()
    try:
        report = paradox.verify(behavior, spec, tol=args.tol or paradox.DEFAULT_TOL)
    except classical.MissingEventError as err:
        raise InputError(f"behavior does not cover the spec events: {err}")
    return {"spec": args.spec, "behavior": args.behavior, "report": report.to_json()}


def _optimizer_config(args) -> optimize.OptimizerConfig:
    if args.config:
        config = optimize.OptimizerConfig.from_json(_load_json(args.config))
    else:
        config = optimize.OptimizerConfig()
    overrides = {}
    if args.restarts is not None:
        overrides["restarts"] = args.restarts
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        data = config.to_json()
        data.update(overrides)
        config = optimize.OptimizerConfig.from_json(data)
    return config


OPTIMIZE_TASKS = ("hardy-local", "chsh-paradox-local", "kcbs-qutrit")


def cmd_optimize(args) -> dict:
    config = _optimizer_config(args)
    if args.task == "hardy-local":
        result = optimize.maximize_hardy_local(config)
    elif args.task == "chsh-paradox-local":
        result = optimize.maximize_chsh_paradox_local(config)
    elif args.task == "kcbs-qutrit":
        result = optimize.maximize_kcbs_qutrit(
            constrained=args.constrained, config=config, dimension=args.dimension
        )
    else:
        raise InputError(f"unknown task {args.task!r}; choose from {OPTIMIZE_TASKS}")
    payload = result.to_json()
    payload["config"] = config.to_json()
    return payload


def cmd_inequality(args) -> dict:
    if args.name == "chsh":
        behavior = _resolve_behavior(args.behavior or "construction-bell")
        evaluation = inequalities.evaluate_event_sum(
            inequalities.chsh_probability_inequality(), behavior
        )
        return {"inequality": "chsh", "behavior": args.behavior, "report": evaluation.to_json()}
    if args.name == "kcbs":
        behavior = _resolve_behavior(args.behavior or "construction-bell")
        evaluation = inequalities.evaluate_event_sum(inequalities.kcbs_inequality(), behavior)
        return {"inequality": "kcbs", "behavior": args.behavior, "report": evaluation.to_json()}
    if args.name == "chsh-correlator":
        behavior = _resolve_behavior(args.behavior or "construction")
        graph = quantum.contextual_chsh_graph()
        try:
            vertex_probs = {
                v.id: behavior.probability(v.event) for v in graph.vertices
            }
        except classical.MissingEventError as err:
            raise InputError(f"behavior does not cover the contextual events: {err}")
        result = inequalities.correlator_inequality_value(vertex_probs, graph)
        return {
            "inequality": "chsh-correlator",
            "behavior": args.behavior,
            "report": result.to_json(),
        }
    raise InputError(f"unknown inequality {args.name!r}")


def cmd_tables(args) -> dict:
    config = _optimizer_config(args)
    if args.restarts is None:
        # modest default so the command stays interactive; raise for audits
        data = config.to_json()
        data["restarts"] = 40
        config = optimize.OptimizerConfig.from_json(data)

    chsh_spec = paradox.chsh_paradox_spec()
    classical_value, _ = classical.classical_paradox_max(chsh_spec, scenario.bell_222())

    local = optimize.maximize_chsh_paradox_local(config)
    local_value = local.best_value if local.feasible else None

    construction = quantum.chsh_construction()
    report = paradox.verify(
        quantum.contextual_behavior(construction), paradox.contextual_chsh_paradox_spec()
    )
    entangled_value = report.p_hardy

    hardy = optimize.maximize_hardy_local(config)
    kcbs = optimize.maximize_kcbs_qutrit(constrained=True, config=config)

    return {
        "hierarchy": {
            "classical": classical_value,
            "local_measurements": local_value,
            "local_measurements_feasible": local.feasible,
            "entangled_measurements": str(Fraction(entangled_value)),
            "entangled_measurements_float": float(entangled_value),
        },
        "comparison": [
            {
                "paradox": "chsh",
                "p_hardy": str(Fraction(entangled_value)),
                "p_hardy_float": float(entangled_value),
                "dimension": 4,
                "measurements": 8,
            },
            {
                "paradox": "pentagon-qutrit",
                "p_hardy_float": kcbs.best_value - 2 if kcbs.feasible else None,
                "dimension": 3,
                "measurements": 5,
            },
            {
                "paradox": "hardy",
                "p_hardy_float": hardy.best_value if hardy.feasible else None,
                "dimension": 4,
                "measurements": 4,
            },
        ],
        "config": config.to_json(),
        "feasible": bool(local.feasible and hardy.feasible and kcbs.feasible),
    }


def _human_summary(command: str, payload: dict) -> str:
    lines = [f"exclusivity {command}"]
    if command == "graph":
        lines.append(
            f"  {payload['name']}: {payload['vertices']} vertices, {payload['edges']} edges"
        )
        lines.append(
            f"  independence number alpha = {_fmt(payload['independence_number'])}, "
            f"witness {payload['independence_witness']}"
        )
        if "lovasz_theta" in payload:
            theta = payload["lovasz_theta"]
            lines.append(
                f"  lovasz theta = {theta['value']:.7f} (gap {theta['duality_gap']:.1e})"
            )
        lines.append(f"  pentagons (induced 5-holes): {len(payload['odd_holes_5'])}")
    elif command == "verify":
        report = payload["report"]
        lines.append(f"  spec {payload['spec']}: verified = {report['verified']}")
        lines.append(f"  p_hardy = {report['p_hardy']} ({report['p_hardy_float']:.6f})")
        for label, residual in report["zero_residuals"].items():
            lines.append(f"  zero {label}: residual {residual}")
        for k, residual in enumerate(report["saturation_residuals"]):
            lines.append(f"  saturation {k}: |sum - 1| = {residual}")
    elif command == "optimize":
        lines.append(f"  task {payload['task']}: best value {payload['best_value']:.8f}")
        lines.append(
            f"  feasible = {payload['feasible']}, restarts = {payload['restarts_completed']}"
        )
        if payload.get("classification"):
            lines.append(f"  classification: {payload['classification']}")
    elif command == "inequality":
        report = payload["report"]
        value = report.get("value", report.get("value_float"))
        bound = report.get("bound", report.get("nchv_bound"))
        lines.append(f"  {payload['inequality']}: value {value} vs bound {bound}")
        lines.append(f"  violated = {report['violated']}")
    elif command == "tables":
        h = payload["hierarchy"]
        local = h["local_measurements"]
        local_str = f"{local:.2e}" if local is not None else "not converged"
        lines.append("  p_hardy hierarchy:")
        lines.append(f"    classical theory      : {_fmt(h['classical'])}")
        lines.append(f"    local measurements    : {local_str}")
        lines.append(
            f"    entangled measurements: {h['entangled_measurements']} "
            f"= {h['entangled_measurements_float']:.6f}"
        )
        lines.append("  paradox comparison (p_hardy, dim, #measurements):")
        for row in payload["comparison"]:
            p = row.get("p_hardy", row.get("p_hardy_float"))
            lines.append(
                f"    {row['paradox']:16s} {p} ({row['p_hardy_float']:.6f}) "
                f"dim={row['dimension']} #M={row['measurements']}"
            )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exclusivity",
        description="Exclusivity-graph analysis of logical proofs of quantum correlations",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=None, help="numeric tolerance")
        p.add_argument("--seed", type=int, default=None, help="optimizer seed")
        p.add_argument("--restarts", type=int, default=None, help="optimizer restarts")
        p.add_argument("--json", action="store_true", help="print the JSON payload")
        p.add_argument("--out", type=str, default=None, help="write the JSON payload to a file")

    p = sub.add_parser("graph", help="graph invariants for a builtin or a scenario file")
    p.add_argument("name", nargs="?", default="chsh", help=f"builtin: {', '.join(BUILTIN_GRAPHS)}")
    p.add_argument("--scenario-file", type=str, default=None)
    common(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify", help="verify a behavior against a paradox spec")
    p.add_argument("behavior", help="behavior JSON file or builtin name")
    p.add_argument("spec", help=f"spec name: {', '.join(sorted(paradox.BUILTIN_SPECS))}")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("optimize", help="run a model-family optimization task")
    p.add_argument("task", help=f"task: {', '.join(OPTIMIZE_TASKS)}")
    p.add_argument("--config", type=str, default=None, help="OptimizerConfig JSON file")
    p.add_argument("--constrained", action="store_true", help="kcbs: add paradox conditions")
    p.add_argument("--dimension", type=int, default=3, help="kcbs: vector dimension")
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("inequality", help="evaluate an inequality on a behavior")
    p.add_argument("name", help="chsh | kcbs | chsh-correlator")
    p.add_argument("--behavior", type=str, default=None, help="behavior file or builtin")
    common(p)
    p.set_defaults(func=cmd_inequality)

    p = sub.add_parser("tables", help="regenerate the hierarchy and comparison tables")
    p.add_argument("--config", type=str, default=None, help="OptimizerConfig JSON file")
    common(p)
    p.set_defaults(func=cmd_tables)

    return parser


def _digest(args: argparse.Namespace) -> str:
    skip = {"func", "out", "json"}  # outputs, not inputs
    data = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    for key in ("scenario_file", "config"):
        path = data.get(key)
        if path and Path(path).exists():
            data[f"{key}_sha"] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    blob = json.dumps(data, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        payload = args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as err:  # a ValueError, but not an input error
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except graphs.ThetaNonConvergenceError as err:
        print(
            f"non-convergence: {err} (best bounds {err.best_primal:.9f}..{err.best_dual:.9f})",
            file=sys.stderr,
        )
        return 1
    report = {
        "command": args.command,
        "inputs_digest": _digest(args),
        "results": payload,
        "versions": {
            "exclusivity": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "wall_clock_seconds": round(time.perf_counter() - start, 3),
    }
    text = json.dumps(report, indent=2, default=str)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text if args.json else _human_summary(args.command, payload))
    if args.command == "optimize" and not payload.get("feasible", True):
        return 1
    if args.command == "tables" and not payload.get("feasible", True):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
