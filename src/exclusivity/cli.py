"""Command line front end.

Subcommands::

    graph       builtin name or scenario file -> graph JSON + invariants
    verify      behavior (file or builtin) against a paradox spec
    optimize    hardy-local | chsh-paradox-local | kcbs-qutrit
    inequality  chsh | kcbs | chsh-correlator on a behavior
    tables      regenerate the resource-hierarchy and comparison tables

Every run prints a human summary; ``--json`` prints the full machine
payload instead, and ``--out FILE`` writes it to disk either way.  Exit
codes: 0 ok, 1 non-convergence or numerical failure, 2 input error.  Input
errors, an unreadable file or an unwritable ``--out`` among them, are raised
as ``InputError`` where they arise; any other exception is a bug and
propagates.  Each command's summary formatter sits beside it and reads only
its payload.  Values with an exact rational form are printed as fraction and
decimal.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
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


def _tolerance(args, default: float, minimum: float = 0.0) -> float:
    """``--tol`` when given (0 included), else ``default``; it must be
    finite and at least ``minimum``."""
    if args.tol is None:
        return default
    if not (math.isfinite(args.tol) and args.tol >= minimum):
        raise InputError(f"--tol must be a finite number >= {minimum:g}, got {args.tol!r}")
    return args.tol


def _fmt(value) -> str:
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        frac = Fraction(value)
        if frac.denominator == 1:
            return f"{frac.numerator}"
        return f"{frac} = {float(frac):.6f}"
    return f"{float(value):.6f}"


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise InputError(f"cannot read {path}: {err.strerror or err}")
    except (ValueError, RecursionError) as err:  # not UTF-8, not JSON, or past the parser's limits
        raise InputError(f"malformed JSON in {path}: {err}")


# builtin inputs by name; each value looks its function up when called, so
# a wrapper set on the module is the one that runs
BUILTIN_GRAPHS = {
    "2-2-2": lambda: scenario.build_exclusivity_graph(scenario.bell_222()),
    "chsh": lambda: scenario.chsh_event_graph(),
    "pentagon": lambda: scenario.pentagon_event_graph(),
    "chsh-contextual": lambda: quantum.contextual_chsh_graph(),
}
BUILTIN_BEHAVIORS = {
    "construction": lambda: quantum.contextual_behavior(quantum.chsh_construction()),
    "construction-bell": lambda: quantum.construction_bell_behavior(),
    "tsirelson": lambda: inequalities.tsirelson_counterexample(),
}


def _builtin(kind: str, builtins: dict, name: str):
    if name not in builtins:
        raise InputError(f"unknown builtin {kind} {name!r}; choose from {', '.join(builtins)}")
    return builtins[name]()


def _resolve_behavior(ref: str) -> classical.Behavior:
    if Path(ref).exists():
        try:
            return classical.behavior_from_json(_load_json(ref))
        except (KeyError, ValueError, TypeError) as err:
            raise InputError(f"invalid behavior file {ref}: {err}")
    return _builtin("behavior", BUILTIN_BEHAVIORS, ref)


def cmd_graph(args) -> dict:
    accuracy = _tolerance(args, 1e-7, minimum=1e-7)
    if args.scenario_file:
        data = _load_json(args.scenario_file)
        try:
            parsed = scenario.scenario_from_json(data)
        except (KeyError, ValueError, TypeError) as err:
            raise InputError(f"invalid scenario file {args.scenario_file}: {err}")
        events = sum(  # counted before the events are built and every pair is tested
            math.prod(parsed.measurement(m).num_outcomes for m in ctx) for ctx in parsed.contexts
        )
        if events > graphs.ALPHA_MAX_VERTICES:
            raise InputError(
                f"scenario has {events} events; independence_number supports "
                f"<= {graphs.ALPHA_MAX_VERTICES} vertices"
            )
        graph = scenario.build_exclusivity_graph(parsed)
        name = args.scenario_file
    else:
        graph = _builtin("graph", BUILTIN_GRAPHS, args.name)
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
    if graph.n <= graphs.THETA_MAX_VERTICES:
        payload["lovasz_theta"] = graphs.lovasz_theta(graph, accuracy=accuracy).to_json()
    else:  # alpha still stands, so this is no failure
        payload["lovasz_theta"] = None
        payload["lovasz_theta_skipped"] = f"{graph.n} vertices > {graphs.THETA_MAX_VERTICES}"
    return payload


def _graph_summary(payload: dict) -> list[str]:
    lines = [
        f"  {payload['name']}: {payload['vertices']} vertices, {payload['edges']} edges",
        f"  independence number alpha = {_fmt(payload['independence_number'])}, "
        f"witness {payload['independence_witness']}",
    ]
    theta = payload["lovasz_theta"]
    if theta is None:
        lines.append(f"  lovasz theta: not computed ({payload['lovasz_theta_skipped']})")
    else:
        lines.append(f"  lovasz theta = {theta['value']:.7f} (gap {theta['duality_gap']:.1e})")
        if theta["stop"] == "clique_cover":
            lines.append("  exact: alpha meets a clique cover")
    lines.append(f"  pentagons (induced 5-holes): {len(payload['odd_holes_5'])}")
    return lines


def cmd_verify(args) -> dict:
    behavior = _resolve_behavior(args.behavior)
    if args.spec not in paradox.BUILTIN_SPECS:
        raise InputError(
            f"unknown spec {args.spec!r}; choose from {sorted(paradox.BUILTIN_SPECS)}"
        )
    spec = paradox.BUILTIN_SPECS[args.spec]()
    tol = _tolerance(args, paradox.DEFAULT_TOL)
    try:
        report = paradox.verify(behavior, spec, tol=tol)
    except classical.MissingEventError as err:
        raise InputError(f"behavior does not cover the spec events: {err}")
    return {"spec": args.spec, "behavior": args.behavior, "report": report.to_json()}


def _verify_summary(payload: dict) -> list[str]:
    report = payload["report"]
    saturation = enumerate(report["saturation_residuals"])
    return [
        f"  spec {payload['spec']}: verified = {report['verified']}",
        f"  p_hardy = {report['p_hardy']} ({report['p_hardy_float']:.6f})",
        *(f"  zero {label}: residual {r}" for label, r in report["zero_residuals"].items()),
        *(f"  saturation {k}: |sum - 1| = {r}" for k, r in saturation),
    ]


def _optimizer_config(args, default: optimize.OptimizerConfig) -> optimize.OptimizerConfig:
    overrides = {"restarts": args.restarts, "seed": args.seed}
    try:
        return dataclasses.replace(
            default, **{k: v for k, v in overrides.items() if v is not None}
        )
    except ValueError as err:
        raise InputError(str(err))


def _kcbs_qutrit(config: optimize.OptimizerConfig, args) -> optimize.OptimizationResult:
    try:
        return optimize.maximize_kcbs_qutrit(
            constrained=args.constrained, config=config, dimension=args.dimension
        )
    except ValueError as err:
        raise InputError(str(err))


# keyed like optimize.DEFAULT_CONFIGS; values look up their function as above
OPTIMIZE_TASKS = {
    "hardy-local": lambda config, args: optimize.maximize_hardy_local(config),
    "chsh-paradox-local": lambda config, args: optimize.maximize_chsh_paradox_local(config),
    "kcbs-qutrit": _kcbs_qutrit,
}


def cmd_optimize(args) -> dict:
    if args.task not in OPTIMIZE_TASKS:
        raise InputError(f"unknown task {args.task!r}; choose from {', '.join(OPTIMIZE_TASKS)}")
    config = _optimizer_config(args, optimize.DEFAULT_CONFIGS[args.task])
    result = OPTIMIZE_TASKS[args.task](config, args)
    payload = result.to_json()
    payload["config"] = dataclasses.asdict(config)
    return payload


def _optimize_summary(payload: dict) -> list[str]:
    lines = [
        f"  task {payload['task']}: best value {payload['best_value']:.8f}",
        f"  feasible = {payload['feasible']}, restarts = {payload['restarts_completed']}",
    ]
    if payload.get("classification"):
        lines.append(f"  classification: {payload['classification']}")
    statuses = [
        stage["status"] for restart in payload.get("restarts", ()) for stage in restart["stages"]
    ]
    stopped = sum(status != 0 for status in statuses)
    if stopped:
        lines.append(f"  {stopped} of {len(statuses)} stages stopped with nonzero status")
    return lines


EVENT_SUM_INEQUALITIES = {
    "chsh": inequalities.chsh_probability_inequality,
    "kcbs": inequalities.kcbs_inequality,
}


def cmd_inequality(args) -> dict:
    if args.name not in (*EVENT_SUM_INEQUALITIES, "chsh-correlator"):
        raise InputError(f"unknown inequality {args.name!r}")
    default = "construction" if args.name == "chsh-correlator" else "construction-bell"
    behavior = _resolve_behavior(args.behavior or default)
    try:
        if args.name == "chsh-correlator":
            graph = quantum.contextual_chsh_graph()
            vertex_probs = {v.id: behavior.probability(v.event) for v in graph.vertices}
            result = inequalities.correlator_inequality_value(vertex_probs, graph)
        else:
            result = inequalities.evaluate_event_sum(
                EVENT_SUM_INEQUALITIES[args.name](), behavior
            )
    except classical.MissingEventError as err:
        raise InputError(f"behavior does not cover the {args.name} events: {err}")
    return {"inequality": args.name, "behavior": args.behavior, "report": result.to_json()}


def _inequality_summary(payload: dict) -> list[str]:
    report = payload["report"]
    bound = report.get("bound", report.get("nchv_bound"))
    return [
        f"  {payload['inequality']}: value {report['value']} vs bound {bound}",
        f"  violated = {report['violated']}",
    ]


def cmd_tables(args) -> dict:
    # modest default so the command stays interactive; raise for audits
    config = _optimizer_config(args, optimize.OptimizerConfig(restarts=40))

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
        "config": dataclasses.asdict(config),
        "feasible": bool(local.feasible and hardy.feasible and kcbs.feasible),
    }


def _tables_summary(payload: dict) -> list[str]:
    h = payload["hierarchy"]
    local = h["local_measurements"]
    local_str = f"{local:.2e}" if local is not None else "not converged"
    lines = [
        "  p_hardy hierarchy:",
        f"    classical theory      : {_fmt(h['classical'])}",
        f"    local measurements    : {local_str}",
        f"    entangled measurements: {h['entangled_measurements']} "
        f"= {h['entangled_measurements_float']:.6f}",
        "  paradox comparison (p_hardy, dim, #measurements):",
    ]
    for row in payload["comparison"]:
        p = row["p_hardy_float"]
        p_str = "infeasible" if p is None else f"{row.get('p_hardy', p)} ({p:.6f})"
        lines.append(
            f"    {row['paradox']:16s} {p_str} dim={row['dimension']} #M={row['measurements']}"
        )
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exclusivity",
        description="Exclusivity-graph analysis of logical proofs of quantum correlations",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the options it reads, so an ignored flag
    # is a usage error rather than a silent change of inputs_digest
    def outputs(p):
        p.add_argument("--json", action="store_true", help="print the JSON payload")
        p.add_argument("--out", type=str, default=None, help="write the JSON payload to a file")

    def tolerance(p):
        p.add_argument("--tol", type=float, default=None, help="numeric tolerance")
        outputs(p)

    def optimizer(p):
        p.add_argument("--seed", type=int, default=None, help="optimizer seed")
        p.add_argument(
            "--restarts", type=int, default=None,
            help="optimizer restarts (default: the task's own, 40 for tables)",
        )
        outputs(p)

    p = sub.add_parser("graph", help="graph invariants for a builtin or a scenario file")
    p.add_argument("name", nargs="?", default="chsh", help=f"builtin: {', '.join(BUILTIN_GRAPHS)}")
    p.add_argument("--scenario-file", type=str, default=None)
    tolerance(p)
    p.set_defaults(func=cmd_graph, summary=_graph_summary)

    p = sub.add_parser("verify", help="verify a behavior against a paradox spec")
    p.add_argument("behavior", help=f"behavior file or builtin: {', '.join(BUILTIN_BEHAVIORS)}")
    p.add_argument("spec", help=f"spec name: {', '.join(sorted(paradox.BUILTIN_SPECS))}")
    tolerance(p)
    p.set_defaults(func=cmd_verify, summary=_verify_summary)

    p = sub.add_parser("optimize", help="run a model-family optimization task")
    p.add_argument("task", help=f"task: {', '.join(OPTIMIZE_TASKS)}")
    p.add_argument("--constrained", action="store_true", help="kcbs: add paradox conditions")
    p.add_argument("--dimension", type=int, default=3, help="kcbs: vector dimension")
    optimizer(p)
    p.set_defaults(func=cmd_optimize, summary=_optimize_summary)

    p = sub.add_parser("inequality", help="evaluate an inequality on a behavior")
    p.add_argument("name", help="chsh | kcbs | chsh-correlator")
    p.add_argument("--behavior", type=str, default=None, help="behavior file or builtin")
    outputs(p)
    p.set_defaults(func=cmd_inequality, summary=_inequality_summary)

    p = sub.add_parser("tables", help="regenerate the hierarchy and comparison tables")
    optimizer(p)
    p.set_defaults(func=cmd_tables, summary=_tables_summary)

    return parser


def _digest(args: argparse.Namespace) -> str:
    skip = {"func", "summary", "out", "json"}  # outputs, not inputs
    data = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    path = data.get("scenario_file")
    if path and Path(path).exists():
        data["scenario_file_sha"] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    blob = json.dumps(data, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        payload = args.func(args)
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
            try:
                Path(args.out).write_text(text + "\n", encoding="utf-8")
            except OSError as err:
                raise InputError(f"cannot write {args.out}: {err.strerror or err}")
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1
    except graphs.ThetaNonConvergenceError as err:
        print(
            f"non-convergence: {err} (best bounds {err.best_primal:.9f}..{err.best_dual:.9f})",
            file=sys.stderr,
        )
        return 1
    print(text if args.json else "\n".join([f"exclusivity {args.command}", *args.summary(payload)]))
    if args.command in ("optimize", "tables") and not payload.get("feasible", True):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
