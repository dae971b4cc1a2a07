"""Which program functions the traced run wraps, and the per-layer metrics
derived from the spans they record."""

from __future__ import annotations

from tracing import SpanIndex, Tracer

from exclusivity import classical, graphs, inequalities, optimize, paradox, quantum, scenario

# public functions of the exact layer that the graph workload calls
EXACT_CALLS = {
    quantum: ("chsh_construction", "model_vertex_probabilities", "contextual_behavior",
              "construction_bell_behavior", "construction_vectors", "construction_handle"),
    paradox: ("verify", "contextual_chsh_paradox_spec", "hardy_spec", "chsh_paradox_spec"),
    classical: ("enumerate_deterministic", "classical_paradox_max"),
    inequalities: ("s_chsh", "correlator_inequality_value", "tsirelson_counterexample"),
}
SCENARIO_CALLS = ("ExclusivityGraph", "GraphVertex", "bell_222", "build_exclusivity_graph",
                  "chsh_event_graph", "pentagon_event_graph")
BELL_TASKS = ("chsh-paradox-local", "hardy-local")
SIZE_BUCKETS = (("n05-08", 5, 8), ("n09-12", 9, 12), ("n13-16", 13, 16))


def wrap_setup(tracer: Tracer) -> None:
    """Spans around the scenario calls that build the inputs."""
    for attr in SCENARIO_CALLS:
        tracer.wrap(scenario, attr, "scenario")


def wrap_timed(tracer: Tracer) -> None:
    """Spans at every layer boundary the timed phase crosses."""
    tracer.wrap(optimize, "_bell_amplitudes", "optimize.bell_model")
    tracer.wrap(optimize, "_pentagon_evaluate", "optimize.pentagon_model")
    tracer.wrap(optimize, "minimize", "optimize.stage",
                read=lambda r, args: (int(r.nit), int(r.nfev), int(r.status)))
    tracer.wrap(optimize, "least_squares", "optimize.polish",
                read=lambda r, args: (int(r.nfev), int(r.njev or 0), int(r.status)))
    tracer.wrap(optimize, "classify_local_model", "optimize.classify")
    for attr in ("maximize_chsh_paradox_local", "maximize_hardy_local", "maximize_kcbs_qutrit"):
        tracer.wrap(optimize, attr, "optimize.multistart", read=lambda r, args: (
            r.task, r.restarts_completed, sum(s.feasible for s in r.restart_summaries)))
    tracer.wrap(graphs, "lovasz_theta", "graphs.theta",
                read=lambda r, args: (args[0].n, r.iterations, r.duality_gap))
    tracer.wrap(graphs, "_theta_from_components", "graphs.theta.split")
    tracer.wrap(graphs, "independence_number", "graphs.alpha")
    for module, attrs in EXACT_CALLS.items():
        for attr in attrs:
            tracer.wrap(module, attr, module.__name__.rsplit(".", 1)[1])


def _ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, 0 where the layer did not run."""
    return numerator / denominator if denominator else 0.0


def per_layer(index: SpanIndex, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); 0 where the layer
    does not run on this workload."""
    runs = index.of("optimize.multistart")
    restarts = sum(s.attrs[1] for s in runs)
    bell_restarts = sum(s.attrs[1] for s in runs if s.attrs[0] in BELL_TASKS)
    metrics: dict[str, tuple[float, str]] = {}
    for model, model_restarts in (("bell_model", bell_restarts),
                                  ("pentagon_model", restarts - bell_restarts)):
        name = f"optimize.{model}"
        calls, busy = index.count(name), index.busy(name)
        metrics[f"{name}.calls_per_restart"] = (_ratio(calls, model_restarts), "count")
        metrics[f"{name}.us_per_call"] = (_ratio(busy * 1e6, calls), "us")
        metrics[f"{name}.busy_s"] = (busy, "s")

    stages = index.of("optimize.stage")
    metrics["optimize.stage.count"] = (len(stages), "count")
    metrics["optimize.stage.nit_per_stage"] = (_ratio(sum(s.attrs[0] for s in stages), len(stages)), "count")
    metrics["optimize.stage.nfev_per_stage"] = (_ratio(sum(s.attrs[1] for s in stages), len(stages)), "count")
    metrics["optimize.stage.self_s"] = (index.self_time("optimize.stage"), "s")
    metrics["optimize.stage.not_converged"] = (sum(s.attrs[2] != 0 for s in stages), "count")

    polishes = index.of("optimize.polish")
    polish_model_calls = sum(
        index.enclosing(i, ("optimize.stage", "optimize.polish")) == "optimize.polish"
        for name in ("optimize.bell_model", "optimize.pentagon_model")
        for i in index.by_name.get(name, ())
    )
    metrics["optimize.polish.nfev_per_restart"] = (_ratio(sum(s.attrs[0] for s in polishes), restarts), "count")
    metrics["optimize.polish.njev_per_restart"] = (_ratio(sum(s.attrs[1] for s in polishes), restarts), "count")
    metrics["optimize.polish.model_calls_per_restart"] = (_ratio(polish_model_calls, restarts), "count")
    metrics["optimize.polish.self_s"] = (index.self_time("optimize.polish"), "s")
    # least_squares status 0: stopped at max_nfev
    metrics["optimize.polish.at_cap"] = (sum(s.attrs[2] == 0 for s in polishes), "count")
    metrics["optimize.multistart.self_s"] = (index.self_time("optimize.multistart"), "s")
    metrics["optimize.classify.busy_s"] = (index.busy("optimize.classify"), "s")
    metrics["optimize.restart.feasible_ratio"] = (_ratio(sum(s.attrs[2] for s in runs), restarts), "ratio")

    thetas = index.of("graphs.theta")
    steps = sum(s.attrs[1] for s in thetas)
    metrics["graphs.theta.busy_s"] = (index.busy("graphs.theta"), "s")
    metrics["graphs.theta.newton_steps_per_graph"] = (_ratio(steps, len(thetas)), "count")
    metrics["graphs.theta.max_gap"] = (max((s.attrs[2] for s in thetas), default=0.0), "1")
    metrics["graphs.theta.split_calls"] = (index.count("graphs.theta.split"), "count")
    for bucket, low, high in SIZE_BUCKETS:
        inside = [s for s in thetas if low <= s.attrs[0] <= high]
        metrics[f"graphs.theta.ms_per_step.{bucket}"] = (
            _ratio(sum(s.end - s.start for s in inside) * 1e3, sum(s.attrs[1] for s in inside)), "ms")
    alpha_calls, alpha_busy = index.count("graphs.alpha"), index.busy("graphs.alpha")
    metrics["graphs.alpha.calls"] = (alpha_calls, "count")
    metrics["graphs.alpha.us_per_call"] = (_ratio(alpha_busy * 1e6, alpha_calls), "us")
    metrics["graphs.alpha.busy_s"] = (alpha_busy, "s")

    for layer in ("quantum", "paradox", "classical", "inequalities", "scenario"):
        metrics[f"{layer}.busy_ms"] = (index.busy(layer) * 1e3, "ms")
    for phase in ("import", "inputs"):
        metrics[f"setup.{phase}_s"] = (index.busy(f"setup.{phase}"), "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics
