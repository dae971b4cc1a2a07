"""Seeded multistart penalty optimization over model families.

All tasks share one engine: maximize a probability objective subject to
equality constraints (probabilities or inner products that must vanish, sums
that must hit 1), handled by quadratic penalties on the fixed geometric
schedule ``PENALTY_SCHEDULE``.  Every task supplies its objective, its
residuals and their closed-form Jacobians, so each penalty stage is a
limited-memory quasi-Newton run (scipy's compiled L-BFGS-B, no bounds) on
the analytic gradient of ``-value + mu * |residuals|^2``.  A
feasibility polish always follows: a Gauss-Newton least-squares solve
(``scipy.optimize.least_squares`` with the analytic Jacobian) that drives
the residuals to zero.  The polish step matters: near impossibility
boundaries the penalized iterates ride ridges where the objective scales
like the square root of the residual, so values at loose feasibility (1e-8)
can overstate the true feasible supremum by orders of magnitude.  Driving
the residuals to ~1e-16 first and only then reading off the objective
removes that bias.

A system with fewer residuals than parameters (Hardy 6 x 8, free and
constrained KCBS 5 x 10 and 7 x 10) is polished over the row space of its
Jacobian at the point the stages hand over: x = x0 + B z, with B an
orthonormal basis of that space from the SVD and z0 = 0.  scipy's ``trf``
tries a full Gauss-Newton step only when there are at least as many
residuals as parameters.  With fewer, every step is a Levenberg step on
the trust-region boundary, whose radius starts at |x0| and then halves, so
the polish would take 30-50 evaluations where Gauss-Newton takes a few.  In
z the system is square and the first radius is 1.  A system with at least
as many residuals as parameters (CHSH-local 8 x 8) is polished on x itself.

A task may polish on a different residual system with the same zero set.
The two-qubit tasks polish the zero events' amplitudes (real and imaginary
parts) rather than their probabilities: a probability is |amplitude|^2, so
its Jacobian vanishes exactly at the solution and Gauss-Newton on it would
crawl.  Feasibility is always judged on the task's own residuals (the
probabilities) against ``FEASIBILITY_TOL``.

The only settings are the number of restarts and the seed
(``OptimizerConfig``, with each task's default in ``DEFAULT_CONFIGS``); the
schedule, the tolerance and the iteration caps are module constants.  Every
restart draws its starting point from a stream seeded by (seed, restart
index), so results are bit-reproducible and independent of execution
order.  Ties prefer the lowest restart index.

``scipy.optimize`` loads on the first optimizer call, not with this
module: the graph invariants, the exact checks and every CLI command but
``optimize`` and ``tables`` import this module and never optimize, and the
import costs about half a second and 40 MB.  ``minimize`` and
``least_squares`` stay attributes of this module, resolved by the module
``__getattr__`` on first access, and ``_multistart`` looks both up on the
module at call time, so a wrapper set on either (by a tracer or a test)
is the one that runs.

Two-qubit tasks optimize over a gauge-fixed parameterization: state
hyperspherical magnitudes (chi1, chi2, chi3) and the |11> phase, plus Bloch
angles for the second setting of each party (8 parameters total).  The
remaining state phases are removable by local diagonal unitaries that leave
the pinned first settings alone, so nothing is lost.  Every event amplitude
is u^T conj(psi) v, with u and v from ``quantum``'s table of outcome kets:
a trigonometric polynomial in these parameters.  The pentagon task's
vectors come from spherical coordinates, so its inner products and
saturation sums are trigonometric polynomials too.

Each forward model is a few array operations on index arrays built once
per task: the two-qubit events gather their amplitudes and derivatives from
one table of both parties' kets against the state and its derivatives, and
the pentagon vectors and their Jacobians are prefix products of one table.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .quantum import BellLocalModel, _bell_ket_indices, _setting_kets, bell_event_probabilities
from .scenario import Event, bell_event

TAU = 2 * math.pi


def __getattr__(name: str):
    """Load scipy's ``minimize`` and ``least_squares`` on first access (see
    the module docstring), keeping any wrapper already set on either."""
    if name not in ("minimize", "least_squares"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.optimize

    names = globals()
    names.setdefault("minimize", scipy.optimize.minimize)
    names.setdefault("least_squares", scipy.optimize.least_squares)
    return names[name]


# Hard caps that keep every local search finite: L-BFGS-B iterations per
# penalty stage, and residual evaluations of the least-squares feasibility
# polish.  Both sit well above what the builtin tasks use (a few hundred
# iterations, a few dozen evaluations).
STAGE_MAX_ITERATIONS = 1000
POLISH_MAX_EVALUATIONS = 200
# Penalty weights mu of the successive L-BFGS-B stages, and the largest
# residual a polished restart may keep and still count as feasible.
PENALTY_SCHEDULE = (1e2, 1e5, 1e8)
FEASIBILITY_TOL = 1e-8


def _check_int(name: str, value, low: int) -> None:
    """Raise ValueError unless ``value`` is an int (not a bool) >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be an int >= {low}, got {value!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Number of seeded restarts and the seed they draw their starts from;
    restart ``i`` starts from the stream seeded by ``(seed, i)``."""

    restarts: int = 200
    seed: int = 20240

    def __post_init__(self):
        _check_int("restarts", self.restarts, 1)
        _check_int("seed", self.seed, 0)


# The config each task runs when none is given (the CLI's too): the
# CHSH-local bound is the paper's central claim and gets the most restarts.
DEFAULT_CONFIGS = {
    "hardy-local": OptimizerConfig(),
    "chsh-paradox-local": OptimizerConfig(restarts=1000),
    "kcbs-qutrit": OptimizerConfig(restarts=100),
}


class Classification(enum.Enum):
    """Structural classes of near-feasible two-qubit local models."""

    COMPATIBLE_MEASUREMENTS = "compatible_measurements"
    PRODUCT_STATE = "product_state"
    VIOLATING = "violating"


@dataclass(frozen=True)
class RestartSummary:
    index: int
    value: float
    max_residual: float
    feasible: bool
    classification: Optional[Classification]
    stage_values: tuple[float, ...]
    # iterations, objective evaluations and status of each penalty stage
    # (L-BFGS-B's ``nit``, ``nfev`` and ``status``; nonzero status is the
    # iteration cap or a line search that made no progress)
    stage_iterations: tuple[int, ...]
    stage_evaluations: tuple[int, ...]
    stage_statuses: tuple[int, ...]
    # evaluations and status of the feasibility polish (scipy's
    # least_squares ``nfev`` and ``status``; status 0 is the evaluation cap)
    polish_evaluations: int
    polish_status: int


@dataclass(frozen=True)
class OptimizationResult:
    """Best feasible point of a multistart run, with per-restart audit data."""

    task: str
    best_value: float
    best_parameters: dict
    best_residuals: dict[str, float]
    feasible: bool
    classification: Optional[Classification]
    restarts_completed: int
    restart_summaries: tuple[RestartSummary, ...]
    best_raw: tuple[float, ...] = ()

    def to_json(self) -> dict:
        return {
            "task": self.task,
            "best_value": self.best_value,
            "feasible": self.feasible,
            "classification": self.classification.value if self.classification else None,
            "best_parameters": self.best_parameters,
            "best_residuals": self.best_residuals,
            "restarts_completed": self.restarts_completed,
            "restarts": [
                {
                    "index": s.index,
                    "value": s.value,
                    "max_residual": s.max_residual,
                    "feasible": s.feasible,
                    "classification": s.classification.value if s.classification else None,
                    "stages": [
                        {"value": v, "iterations": i, "evaluations": e, "status": st}
                        for v, i, e, st in zip(
                            s.stage_values, s.stage_iterations,
                            s.stage_evaluations, s.stage_statuses,
                        )
                    ],
                    "polish_evaluations": s.polish_evaluations,
                    "polish_status": s.polish_status,
                }
                for s in self.restart_summaries
            ],
        }


Evaluation = tuple[float, np.ndarray, np.ndarray, np.ndarray]


def _multistart(
    task: str,
    sample_start: Callable[[np.random.Generator], np.ndarray],
    evaluate: Callable[[np.ndarray], Evaluation],
    describe: Callable[[np.ndarray], tuple[dict, dict]],
    config: OptimizerConfig,
    classify: Optional[Callable[[np.ndarray], Classification]] = None,
    polish_system: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None,
) -> OptimizationResult:
    """Run the penalty pipeline from ``config.restarts`` seeded starts.

    ``evaluate`` maps parameters to (objective value, its gradient, signed
    residual array, residual Jacobian); ``polish_system`` maps them to the
    (residuals, Jacobian) the feasibility polish drives to zero, by default
    the task's own residuals.  ``describe`` renders the winning parameters
    for the result payload.

    Each stage is one ``minimize`` call and the polish one ``least_squares``
    call per restart, over the row space of the start Jacobian when the
    polish system has fewer residuals than parameters (see the module
    docstring); their counts and statuses go into the restart's summary.
    Both solvers are looked up on the module at each call (see
    ``__getattr__``).
    """
    module = sys.modules[__name__]
    if polish_system is None:
        def polish_system(xx):
            return evaluate(xx)[2:]

    # least_squares first asks for the residuals at the start, whose
    # Jacobian has just given the row space, and later for the Jacobian at
    # the point whose residuals it has just accepted: hand back the ones
    # already computed there
    last: list = [None, None, None]

    def polish_at(xx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if last[0] is None or not np.array_equal(xx, last[0]):
            last[:] = xx.copy(), *polish_system(xx)
        return last[1], last[2]

    summaries: list[RestartSummary] = []
    best_key = None
    best: Optional[tuple[np.ndarray, float, np.ndarray, Optional[Classification]]] = None

    for index in range(config.restarts):
        rng = np.random.default_rng([config.seed, index])
        x = np.asarray(sample_start(rng), dtype=float)
        stages = []
        for mu in PENALTY_SCHEDULE:
            def penalized(xx, _mu=mu):
                value, gradient, residuals, jacobian = evaluate(xx)
                return (
                    -value + _mu * float(residuals @ residuals),
                    -gradient + 2.0 * _mu * (residuals @ jacobian),
                )

            # ftol at the floating-point floor: at mu = 1e8 the default
            # relative-decrease test stops short of the optimum
            stage = module.minimize(
                penalized, x, jac=True, method="L-BFGS-B",
                options={"maxiter": STAGE_MAX_ITERATIONS, "ftol": 1e-15},
            )
            x = stage.x
            stages.append((evaluate(x)[0], int(stage.nit), int(stage.nfev), int(stage.status)))
        # fewer residuals than parameters: polish over the row space of the
        # start Jacobian, x = x0 + B z with B orthonormal (n x m) and z0 = 0
        # (see the module docstring)
        start_jacobian = polish_at(x)[1]
        m, n = start_jacobian.shape
        origin = x
        basis = np.linalg.svd(start_jacobian, full_matrices=False)[2].T if m < n else None

        def chart(z: np.ndarray) -> np.ndarray:
            return z if basis is None else origin + basis @ z

        def polish_jacobian(z: np.ndarray) -> np.ndarray:
            jacobian = polish_at(chart(z))[1]
            return jacobian if basis is None else jacobian @ basis

        # tolerances at the floating-point floor: the polish runs until the
        # residuals stop shrinking, not until scipy's 1e-8 defaults
        polish = module.least_squares(
            lambda z: polish_at(chart(z))[0],
            x if basis is None else np.zeros(m),
            jac=polish_jacobian,
            xtol=1e-15, ftol=1e-15, gtol=1e-15,
            max_nfev=POLISH_MAX_EVALUATIONS,
        )
        x = chart(polish.x)
        value, _, residuals, _ = evaluate(x)
        max_residual = float(np.max(np.abs(residuals))) if residuals.size else 0.0
        feasible = max_residual <= FEASIBILITY_TOL
        cls = classify(x) if classify is not None and feasible else None
        values, iterations, evaluations, statuses = zip(*stages)
        summaries.append(
            RestartSummary(
                index=index,
                value=value,
                max_residual=max_residual,
                feasible=feasible,
                classification=cls,
                stage_values=values,
                stage_iterations=iterations,
                stage_evaluations=evaluations,
                stage_statuses=statuses,
                polish_evaluations=int(polish.nfev),
                polish_status=int(polish.status),
            )
        )
        key = (feasible, value, -index)
        if best_key is None or key > best_key:
            best_key = key
            best = (x, value, residuals, cls)

    x, value, residuals, cls = best
    parameters, residual_map = describe(x)
    return OptimizationResult(
        task=task,
        best_value=value,
        best_parameters=parameters,
        best_residuals=residual_map,
        feasible=bool(best_key[0]),
        classification=cls,
        restarts_completed=config.restarts,
        restart_summaries=tuple(summaries),
        best_raw=tuple(float(v) for v in x),
    )


# ---------------------------------------------------------------------------
# Two-qubit local-measurement tasks


def _state_and_derivatives(x: np.ndarray) -> np.ndarray:
    """Gauge-fixed state psi = (psi_00, psi_01, psi_10, psi_11) as row 0,
    followed by its derivatives by chi1, chi2, chi3 and phi_d (shape (5, 4))."""
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


def _bell_table_index(events: Sequence[Event]) -> np.ndarray:
    """Flat positions, shape (n_events, 9), in ``_bell_amplitudes``' (5, 12,
    12) table of each event's amplitude [0, a, b], its state derivatives
    [1-4, a, b] and its derivatives by Alice's theta and phi [0, 4 + a, b],
    [0, 8 + a, b] and Bob's [0, a, 4 + b], [0, a, 8 + b], with a and b the
    event's rows of ``_setting_kets`` (``_bell_ket_indices``)."""
    return (_bell_ket_indices(events) @ [12, 1])[:, None] + [0, 144, 288, 432, 576, 48, 96, 4, 8]


def _bell_amplitudes(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Amplitudes u^T conj(psi) v (column 0; P(ab|xy) = |amplitude|^2) and
    their derivatives by the 8 parameters (columns 1-8) of the events of
    ``index`` (from ``_bell_table_index``), gathered from one table
    U conj(Psi_k) V^T: U and V stack a party's kets and their theta and phi
    derivatives (``_setting_kets``, 12 x 2), and Psi_k is the state or one
    of its 4 derivatives as a 2 x 2 matrix."""
    alice = _setting_kets(x[4], x[5]).reshape(12, 2)
    bob = _setting_kets(x[6], x[7]).reshape(12, 2)
    return ((alice @ _state_and_derivatives(x).reshape(5, 2, 2).conj()) @ bob.T).take(index)


def _bell_evaluate(x: np.ndarray, index: np.ndarray, n_positive: int) -> Evaluation:
    """Sum of the first ``n_positive`` event probabilities, with the other
    events' probabilities as residuals, plus gradient and Jacobian."""
    table = _bell_amplitudes(x, index)
    # column 0: 2 P(event); columns 1-8: its derivatives
    terms = 2.0 * (table[:, :1].conj() * table).real
    positive = terms[:n_positive].sum(axis=0)
    rest = terms[n_positive:]
    return 0.5 * float(positive[0]), positive[1:], 0.5 * rest[:, 0], rest[:, 1:]


def _bell_model_from_raw(x: np.ndarray) -> BellLocalModel:
    psi = _state_and_derivatives(x)[0]
    return BellLocalModel.from_unconstrained(
        amplitudes=(psi[0].real, psi[1].real, psi[2].real, abs(psi[3])),
        phases=(0.0, 0.0, cmath.phase(psi[3])),
        theta_a1=float(x[4]),
        phi_a1=float(x[5]),
        theta_b1=float(x[6]),
        phi_b1=float(x[7]),
    )


def _sample_bell_start(rng: np.random.Generator) -> np.ndarray:
    pi = math.pi
    return rng.uniform(0.0, [pi, pi, pi, TAU, pi, TAU, pi, TAU])


def _maximize_bell_paradox(
    task: str,
    positive_events: Sequence[Event],
    zero_events: Sequence[Event],
    config: OptimizerConfig,
    classify_optimum: bool,
) -> OptimizationResult:
    index = _bell_table_index(list(positive_events) + list(zero_events))
    n_pos = len(positive_events)
    zero_labels = [str(e) for e in zero_events]

    def evaluate(x: np.ndarray) -> Evaluation:
        return _bell_evaluate(x, index, n_pos)

    def zero_amplitudes(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        table = _bell_amplitudes(x, index[n_pos:])
        parts = np.concatenate([table.real, table.imag])
        return parts[:, 0], parts[:, 1:]

    def describe(x: np.ndarray):
        residuals = evaluate(x)[2]
        return (
            {"model": _bell_model_from_raw(x).to_json(), "raw": [float(v) for v in x]},
            dict(zip(zero_labels, (float(r) for r in residuals))),
        )

    def classify(x: np.ndarray) -> Classification:
        return classify_local_model(_bell_model_from_raw(x), tol=FEASIBILITY_TOL)

    return _multistart(
        task,
        _sample_bell_start,
        evaluate,
        describe,
        config,
        classify=classify if classify_optimum else None,
        polish_system=zero_amplitudes,
    )


def maximize_hardy_local(config: Optional[OptimizerConfig] = None) -> OptimizationResult:
    """Maximize P(00|00) over two-qubit local models under the three zeros.

    The feasible optimum is (5*sqrt(5) - 11)/2, about 0.09017.
    """
    from .paradox import hardy_spec

    config = config or DEFAULT_CONFIGS["hardy-local"]
    spec = hardy_spec()
    return _maximize_bell_paradox(
        "hardy-local", spec.positive_events, spec.zero_events, config, classify_optimum=False
    )


def maximize_chsh_paradox_local(config: Optional[OptimizerConfig] = None) -> OptimizationResult:
    """Maximize P(01|00) + P(01|10) under the four CHSH-paradox zeros.

    The feasible supremum for two-qubit local models is 0; the run reports
    the best feasible value over the restarts plus a structural
    classification of every feasible optimum (see ``classify_local_model``).
    """
    from .paradox import chsh_paradox_spec

    config = config or DEFAULT_CONFIGS["chsh-paradox-local"]
    spec = chsh_paradox_spec()
    return _maximize_bell_paradox(
        "chsh-paradox-local", spec.positive_events, spec.zero_events, config, classify_optimum=True
    )


def classify_local_model(
    model: BellLocalModel,
    tol: float = 1e-8,
    branch_tol: Optional[float] = None,
) -> Classification:
    """Classify a model satisfying P(11|00) <= tol and P(11|10) <= tol.

    Those two conditions force |d| <= sqrt(tol) and sin(theta_a1/2)*b to be
    of order sqrt(tol), hence one of two structural branches: the second
    Alice setting collapses onto the first (compatible measurements), or the
    |01> and |11> amplitudes vanish (product state).  With the default
    ``branch_tol = 2*sqrt(tol)`` applied to sin^2 and its square root applied
    to amplitudes, every point passing the preconditions lands in a branch;
    anything else would witness a genuinely nonlocal feasible model.
    """
    p11_00, p11_10 = bell_event_probabilities(
        model, [bell_event("11|00"), bell_event("11|10")]
    )
    if p11_00 > tol or p11_10 > tol:
        raise ValueError(
            f"preconditions unmet: P(11|00)={p11_00:.2e}, P(11|10)={p11_10:.2e} > tol={tol:.0e}"
        )
    branch_sq = 2.0 * math.sqrt(tol) if branch_tol is None else branch_tol
    amp_tol = math.sqrt(branch_sq)
    if math.sin(model.theta_a1 / 2) ** 2 <= branch_sq:
        return Classification.COMPATIBLE_MEASUREMENTS
    if model.b <= amp_tol and model.d <= amp_tol:
        return Classification.PRODUCT_STATE
    return Classification.VIOLATING


# ---------------------------------------------------------------------------
# Pentagon (KCBS) task


def _spherical_index(m: int) -> np.ndarray:
    """Positions, shape (2, 5, m + 1, m + 1), of ``_spherical``'s factor and
    last-factor tables in the rows (sin t, cos t, -sin t, 1, 0) of five
    vectors' m angles t.  Factor row 0 is (1, sin t_0, ..., sin t_(m-1)), and
    row i + 1 swaps in cos t_i, so its prefix products are dS_j/dt_i for
    j > i.  Last-factor rows are (cos t_0, ..., cos t_(m-1), 1), but row
    i + 1 holds -sin t_i at j = i and 0 below, where v_j is free of t_i."""
    row, column = np.arange(m + 1)[:, None], np.arange(m + 1)
    factors = np.where(column == 0, 3 * m, column - 1 + m * (row == column))
    last = np.select([column < row - 1, column == row - 1, column == m],
                     [3 * m + 1, 2 * m + column, 3 * m], m + column)
    return np.stack([factors, last])[:, None] + np.arange(5)[:, None, None] * (3 * m + 2)


_ONE_ZERO = np.tile([1.0, 0.0], (5, 1))


def _spherical(angles: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Unit vectors v_k in R^(m+1) from five rows of m hyperspherical angles,
    as ``table[k, 0]``, with ``table[k, i + 1, j] = d v_kj / d angle_ki``.
    v_j = S_j cos(t_j) for j < m and v_m = S_m, with S_j the product of
    sin(t_i) over i < j: prefix products of the factor table times the
    last-factor table, both gathered by ``index`` (``_spherical_index(m)``)."""
    sines = np.sin(angles)
    factors, last = np.concatenate([sines, np.cos(angles), -sines, _ONE_ZERO], axis=1).take(index)
    return np.cumprod(factors, axis=2) * last


PENTAGON_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))
PENTAGON_SATURATION_PAIRS = ((0, 1), (2, 3))
# Jacobian row e of edge (a, b) holds d<v_a, v_b>/d angles_a on vector a and
# d<v_a, v_b>/d angles_b on b; saturation row 5 + s holds dp_a and dp_b.
_EDGE_OWN, _EDGE_OTHER = np.array(PENTAGON_EDGES + tuple(e[::-1] for e in PENTAGON_EDGES)).T
_SATURATED = np.array(PENTAGON_SATURATION_PAIRS).ravel()


def _pentagon_evaluate(x: np.ndarray, index: np.ndarray, constrained: bool) -> Evaluation:
    """Vertex sum, edge inner products and (if constrained) saturation sums
    minus 1 of five unit vectors, one row of ``x.reshape(5, -1)`` angles each,
    with their gradient and Jacobian.  ``index`` comes from
    ``_spherical_index``."""
    table = _spherical(x.reshape(5, -1), index)
    # products[k, 0, b] = <v_k, v_b>; products[k, i + 1, b] its derivative by angle i of v_k
    products = table @ table[:, 0].T
    p = table[:, 0, 0] ** 2
    dp = 2.0 * table[:, :1, 0] * table[:, 1:, 0]
    residuals = products[_EDGE_OWN[:5], 0, _EDGE_OTHER[:5]]
    rows = np.zeros((7 if constrained else 5, 5, dp.shape[1]))
    rows[np.arange(10) % 5, _EDGE_OWN] = products[_EDGE_OWN, 1:, _EDGE_OTHER]
    if constrained:
        residuals = np.concatenate([residuals, p[_SATURATED[::2]] + p[_SATURATED[1::2]] - 1.0])
        rows[[5, 5, 6, 6], _SATURATED] = dp[_SATURATED]
    return float(p.sum()), dp.ravel(), residuals, rows.reshape(len(rows), -1)


def maximize_kcbs_qutrit(
    constrained: bool,
    config: Optional[OptimizerConfig] = None,
    dimension: int = 3,
) -> OptimizationResult:
    """Maximize the pentagon vertex sum over real unit vectors.

    Five vectors in the given dimension, consecutive ones orthogonal, handle
    pinned to the first basis vector (a global rotation gauge).  The
    unconstrained optimum is sqrt(5); adding the two logical-proof
    saturation conditions (vertex pairs (1,2) and (3,4) summing to 1) lowers
    it to 2 + 1/9.  Dimensions too small for the orthogonality pattern
    come back with ``feasible=False``.
    """
    _check_int("dimension", dimension, 1)
    config = config or DEFAULT_CONFIGS["kcbs-qutrit"]
    task = "kcbs-qutrit-constrained" if constrained else "kcbs-qutrit"

    labels = [f"edge{e}" for e in PENTAGON_EDGES]
    if constrained:
        labels += [f"saturation{p}" for p in PENTAGON_SATURATION_PAIRS]

    if dimension == 1:
        # vectors are +-1: every edge inner product is +-1, never 0, and
        # every saturation pair sums to 2
        return OptimizationResult(
            task=task,
            best_value=5.0,
            best_parameters={"vectors": [[1.0]] * 5, "handle": [1.0], "dimension": 1},
            best_residuals=dict.fromkeys(labels, 1.0),
            feasible=False,
            classification=None,
            restarts_completed=0,
            restart_summaries=(),
        )

    per_vector = dimension - 1
    index = _spherical_index(per_vector)

    def evaluate(x: np.ndarray) -> Evaluation:
        return _pentagon_evaluate(x, index, constrained)

    def describe(x: np.ndarray):
        v = _spherical(x.reshape(5, per_vector), index)[:, 0]
        residuals = evaluate(x)[2]
        return (
            {
                "vectors": [[float(c) for c in vec] for vec in v],
                "handle": [1.0] + [0.0] * (dimension - 1),
                "dimension": dimension,
            },
            dict(zip(labels, (float(r) for r in residuals))),
        )

    highs = np.tile([math.pi] * (per_vector - 1) + [TAU], 5)

    def sample(rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, highs)

    return _multistart(task, sample, evaluate, describe, config)
