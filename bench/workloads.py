"""Inputs, operations and output checks of the three workloads.

A workload is a fixed list of operations built from the seed alone, which
a run repeats in whole passes.  An operation is one public call into the
program: a ``maximize_*`` call (its items are its restarts) or alpha plus
theta of one graph (one item).  The graph workload also starts every pass
with one pass over the exact ququart checks, which counts as no item.

The program is reached only through module attributes (``optimize.x``,
``graphs.x``, ...) looked up at call time, so the tracer's wrappers see
every call.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import numpy as np

import checks
from exclusivity import classical, graphs, inequalities, optimize, paradox, quantum, scenario

# Calls per pass and restarts per call.  Free and constrained KCBS reach
# their closed forms in 57% and 59% of restarts, so 20 and 14 restarts miss
# in fewer than 1e-5 calls; the constrained calls take fewer restarts
# because each costs about twice as much, which keeps the three kinds of
# call at similar lengths.  Restarts differ in cost from seed to seed, so
# model-maxima runs three rounds a pass to keep that share of the spread
# between runs near 6%.
LOCAL_BOUND_CALLS = 4
LOCAL_BOUND_RESTARTS = 10
MODEL_MAXIMA_ROUNDS = 3
MODEL_MAXIMA_RESTARTS = {"hardy": 20, "kcbs-free": 20, "kcbs-constrained": 14}


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    items: int
    case: Any = None


def _call_seed(seed: int, slot: int) -> int:
    return int(np.random.default_rng([seed, slot]).integers(2**31))


def _optimizer_op(kind: str, seed: int, restarts: int) -> Op:
    config = optimize.OptimizerConfig(restarts=restarts, seed=seed)
    if kind == "chsh-local":
        call = lambda: optimize.maximize_chsh_paradox_local(config)  # noqa: E731
    elif kind == "hardy":
        call = lambda: optimize.maximize_hardy_local(config)  # noqa: E731
    else:
        constrained = kind == "kcbs-constrained"
        call = lambda: optimize.maximize_kcbs_qutrit(constrained, config)  # noqa: E731
    return Op(kind, call, restarts)


def _fingerprint(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Optimisation workloads


class LocalBound:
    """Criterion 3's task: two qubits with local measurements cannot verify
    the CHSH paradox, so every feasible restart stays at value 0."""

    name = "local-bound"

    def __init__(self, seed: int):
        self.seed = seed

    def ops(self) -> list[Op]:
        return [
            _optimizer_op("chsh-local", _call_seed(self.seed, slot), LOCAL_BOUND_RESTARTS)
            for slot in range(LOCAL_BOUND_CALLS)
        ]

    def failed(self, op: Op, result) -> int:
        return sum(not s.feasible for s in result.restart_summaries)

    def check(self, op: Op, result) -> list[str]:
        return _check_optimizer(op, result)

    def check_run(self, ops: list[Op], results: list) -> list[str]:
        return []

    @staticmethod
    def fingerprint(op: Op, result) -> str:
        return _fingerprint(
            (
                json.dumps(result.to_json(), sort_keys=True),
                result.best_raw,
                [s.stage_values for s in result.restart_summaries],
            )
        )


class ModelMaxima(LocalBound):
    """Criteria 4 and 7: the Hardy maximum and both KCBS values, in
    MODEL_MAXIMA_ROUNDS rounds of one call of each."""

    name = "model-maxima"

    def ops(self) -> list[Op]:
        kinds = list(MODEL_MAXIMA_RESTARTS.items()) * MODEL_MAXIMA_ROUNDS
        return [
            _optimizer_op(kind, _call_seed(self.seed, slot), restarts)
            for slot, (kind, restarts) in enumerate(kinds)
        ]


_SUPREMA = {
    "chsh-local": 0.0,
    "hardy": checks.HARDY_MAX,
    "kcbs-free": checks.KCBS_FREE_MAX,
    "kcbs-constrained": checks.KCBS_CONSTRAINED_MAX,
}
_CLOSED_FORM_TOL = {"hardy": 1e-4, "kcbs-free": 1e-4, "kcbs-constrained": 1e-3}


def _check_optimizer(op: Op, result) -> list[str]:
    errors = []
    if result.restarts_completed != op.items:
        errors.append(f"{result.restarts_completed} restarts completed, {op.items} asked")
    feasible = [s for s in result.restart_summaries if s.feasible]
    errors += checks.check_supremum([s.value for s in feasible], _SUPREMA[op.kind], op.kind)
    if not result.feasible:
        return errors + [f"{op.kind}: no feasible restart"]
    if op.kind == "chsh-local":
        errors += checks.check_local_restarts(
            [(s.feasible, s.value, s.classification and s.classification.value)
             for s in result.restart_summaries]
        )
        errors += checks.check_two_qubit_model(
            result.best_parameters["model"], checks.CHSH_POSITIVE, checks.CHSH_ZEROS,
            result.best_value,
        )
        return errors
    errors += checks.check_close(
        result.best_value, _SUPREMA[op.kind], _CLOSED_FORM_TOL[op.kind], op.kind
    )
    if op.kind == "hardy":
        errors += checks.check_two_qubit_model(
            result.best_parameters["model"], checks.HARDY_POSITIVE, checks.HARDY_ZEROS,
            result.best_value,
        )
    else:
        errors += checks.check_kcbs_vectors(
            result.best_parameters["vectors"], op.kind == "kcbs-constrained", result.best_value
        )
    return errors


# ---------------------------------------------------------------------------
# Graph workload


class GraphCase:
    """One family member: the program's graph plus the index form the
    independent checks read (vertices 0..n-1 in id order)."""

    def __init__(self, name: str, graph, closed_form: Optional[float]):
        self.name, self.graph, self.closed_form = name, graph, closed_form
        self.index = {vid: k for k, vid in enumerate(graph.vertex_ids())}
        self.n = graph.n
        self.edges = [(self.index[i], self.index[j]) for i, j in graph.edges]
        self.weights = [v.weight for v in graph.vertices]
        self.unit = all(w == 1 for w in self.weights)
        self.reference: Optional[tuple] = None  # (brute-force alpha, clique cover)


def _graph(n: int, edges, weights=None):
    weights = [1] * n if weights is None else weights
    return scenario.ExclusivityGraph(
        vertices=tuple(scenario.GraphVertex(id=i, weight=w) for i, w in enumerate(weights)),
        edges=tuple(edges),
    )


def _cycle_edges(n: int, offset: int = 0):
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


def _complete_edges(n: int, offset: int = 0):
    return [(offset + i, offset + j) for i in range(n) for j in range(i + 1, n)]


def _weights(rng: np.random.Generator, n: int) -> list[Fraction]:
    return [Fraction(int(p), int(q)) for p, q in rng.integers(1, 10, size=(n, 2))]


def _paley_edges(q: int):
    residues = {x * x % q for x in range(1, q)}
    return [(i, j) for i in range(q) for j in range(i + 1, q) if (j - i) % q in residues]


def _random_edges(rng: np.random.Generator, n: int, density: float):
    pairs = _complete_edges(n)
    chosen = rng.choice(len(pairs), size=round(density * len(pairs)), replace=False)
    return [pairs[k] for k in sorted(chosen)]


RANDOM_GRAPHS = ((8, 0.3), (8, 0.5), (12, 0.3), (12, 0.5), (16, 0.5))


def graph_family(seed: int) -> list[tuple[str, Any, Optional[float], Optional[float]]]:
    """(name, graph, theta of the graph, theta of its complement), closed
    forms where known, None elsewhere.  Random edge sets and Fraction
    weights come from ``seed``; everything else is fixed."""
    rng = np.random.default_rng([seed, 1])
    odd = checks.odd_cycle_theta
    sqrt2, sqrt5, sqrt13 = math.sqrt(2), math.sqrt(5), math.sqrt(13)
    # theta(G) * theta(co-G) = n for vertex-transitive G (Lovasz 1979, Thm 8);
    # theta of a disjoint union is the sum, of a join (its complement) the max
    family = [
        ("bell-222", scenario.build_exclusivity_graph(scenario.bell_222()), None, None),
        ("chsh", scenario.chsh_event_graph(), 2 + sqrt2, 8 / (2 + sqrt2)),
        ("pentagon", scenario.pentagon_event_graph(), sqrt5, sqrt5),
        ("chsh-contextual", quantum.contextual_chsh_graph(), 2 + sqrt2, 8 / (2 + sqrt2)),
    ]
    for n in (7, 9, 11):
        family.append((f"C{n}", _graph(n, _cycle_edges(n)), odd(n), n / odd(n)))
    for n in (6, 8, 10):
        family.append((f"C{n}", _graph(n, _cycle_edges(n)), n / 2, 2.0))
    family += [
        ("paley13", _graph(13, _paley_edges(13)), sqrt13, sqrt13),
        ("K16", _graph(16, _complete_edges(16)), 1.0, 16.0),
        ("K6", _graph(6, _complete_edges(6)), 1.0, 6.0),
        ("C5+C7", _graph(12, _cycle_edges(5) + _cycle_edges(7, 5)), odd(5) + odd(7),
         max(5 / odd(5), 7 / odd(7))),
        ("C5+K3+K1-weighted", _graph(9, _cycle_edges(5) + _complete_edges(3, 5), _weights(rng, 9)),
         None, None),
        ("C7-weighted", _graph(7, _cycle_edges(7), _weights(rng, 7)), None, None),
    ]
    chsh = scenario.chsh_event_graph()
    family.append((
        "chsh-weighted",
        scenario.ExclusivityGraph(
            vertices=tuple(
                scenario.GraphVertex(id=v.id, event=v.event, weight=w)
                for v, w in zip(chsh.vertices, _weights(rng, chsh.n))
            ),
            edges=chsh.edges,
        ),
        None, None,
    ))
    for n, density in RANDOM_GRAPHS:
        family.append((f"G({n},{density})", _graph(n, _random_edges(rng, n, density)), None, None))
    return family


class GraphInvariants:
    """alpha and theta over a seeded graph family, each graph with its
    complement, plus one pass of the exact checks."""

    name = "graph-invariants"

    def __init__(self, seed: int):
        self.cases: list[GraphCase] = []
        for name, graph, theta, co_theta in graph_family(seed):
            self.cases.append(GraphCase(name, graph, theta))
            self.cases.append(GraphCase(f"co-{name}", graphs.complement(graph), co_theta))
        self.bell = scenario.bell_222()

    def ops(self) -> list[Op]:
        ops = [Op("exact", self._exact_pass, 0)]
        for case in self.cases:
            ops.append(Op("graph", lambda g=case.graph: _alpha_theta(g), 1, case=case))
        return ops

    def failed(self, op: Op, result) -> int:
        return 0

    def _exact_pass(self) -> dict:
        model = quantum.chsh_construction()
        probs = quantum.model_vertex_probabilities(model)
        contextual = paradox.verify(
            quantum.contextual_behavior(model), paradox.contextual_chsh_paradox_spec()
        )
        tsirelson = inequalities.tsirelson_counterexample()
        correlators = inequalities.correlator_inequality_value(probs, model.graph)
        return {
            "representation_valid": graphs.verify_orthonormal_representation(
                model.graph, model.representation()
            ).valid,
            "positive_pair": probs[1] + probs[8],
            "saturations": [probs[i] + probs[j] for i, j in ((2, 3), (4, 5), (6, 7))],
            "contextual_verified": contextual.verified,
            "contextual_p_hardy": contextual.p_hardy,
            "strategies": len(classical.enumerate_deterministic(self.bell)),
            "classical_hardy": classical.classical_paradox_max(paradox.hardy_spec(), self.bell)[0],
            "classical_chsh": classical.classical_paradox_max(paradox.chsh_paradox_spec(), self.bell)[0],
            "s_chsh": inequalities.s_chsh(quantum.construction_bell_behavior()),
            "correlator": (correlators.value, correlators.nchv_bound, correlators.violated),
            "tsirelson_s": inequalities.s_chsh(tsirelson),
            "tsirelson_report": paradox.verify(tsirelson, paradox.chsh_paradox_spec()),
            "vectors": {vid: (v.num, v.den_sq) for vid, v in quantum.construction_vectors().items()},
            "handle": (quantum.construction_handle().num, quantum.construction_handle().den_sq),
        }

    def check(self, op: Op, result) -> list[str]:
        if op.kind == "exact":
            return check_exact(result)
        case = op.case
        if case.reference is None:
            case.reference = (
                checks.brute_force_alpha(case.n, case.edges, case.weights),
                checks.clique_cover_weight(case.n, case.edges, case.weights),
            )
        alpha, witness, theta = result
        errors = checks.check_alpha(
            alpha, [case.index[v] for v in witness], case.n, case.edges, case.weights,
            reference=case.reference[0],
        )
        errors += checks.check_theta(
            theta.to_json(), theta.primal_certificate, case.n, case.edges, case.weights,
            alpha, case.reference[1], case.closed_form,
        )
        return [f"{case.name}: {e}" for e in errors]

    def check_run(self, ops: list[Op], results: list) -> list[str]:
        """theta(G) * theta(co-G) >= n for every unit-weight pair."""
        last = {id(op.case): result for op, result in zip(ops, results) if op.case and result}
        errors = []
        for graph, co_graph in zip(self.cases[::2], self.cases[1::2]):
            if graph.unit and id(graph) in last and id(co_graph) in last:
                errors += [
                    f"{graph.name}: {e}"
                    for e in checks.check_theta_product(
                        last[id(graph)][2].dual_value, last[id(co_graph)][2].dual_value, graph.n
                    )
                ]
        return errors

    @staticmethod
    def fingerprint(op: Op, result) -> str:
        if op.kind == "exact":
            return _fingerprint(sorted((k, repr(v)) for k, v in result.items()))
        alpha, witness, theta = result
        return _fingerprint(
            (alpha, witness, json.dumps(theta.to_json()), theta.primal_certificate.tobytes())
        )


def _alpha_theta(graph):
    alpha, witness = graphs.independence_number(graph)
    return alpha, witness, graphs.lovasz_theta(graph)


def check_exact(out: dict) -> list[str]:
    """The program's exact numbers (criteria 1, 2, 6 and 8), with 1/6 and
    19/6 recomputed from the construction vectors."""
    errors = checks.check_construction(out["vectors"], out["handle"])
    expected = {
        "representation_valid": True,
        "positive_pair": Fraction(1, 6),
        "saturations": [1, 1, 1],
        "contextual_verified": True,
        "contextual_p_hardy": Fraction(1, 6),
        "strategies": 16,
        "classical_hardy": 0,
        "classical_chsh": 0,
        "s_chsh": Fraction(19, 6),
        "correlator": (-7, -6, True),
    }
    for key, want in expected.items():
        if out[key] != want:
            errors.append(f"{key} = {out[key]!r}, expected {want!r}")
    if abs(float(out["tsirelson_s"]) - (2 + math.sqrt(2))) > 1e-6:
        errors.append(f"Tsirelson S = {out['tsirelson_s']!r}, expected 2 + sqrt(2)")
    report = out["tsirelson_report"]
    if report.verified or not all(float(r) > report.tolerance for _, r in report.zero_residuals):
        errors.append("the Tsirelson point verifies the CHSH paradox")
    return errors


WORKLOADS = {w.name: w for w in (LocalBound, ModelMaxima, GraphInvariants)}
