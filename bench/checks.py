"""Correctness checks of the benchmark, computed apart from the program.

Every check takes plain data read off the program's outputs (numbers,
lists, arrays, the JSON of a model) and returns a list of error strings,
empty when the output passes.  Nothing here imports ``exclusivity``: the
references are NumPy Kronecker products, brute-force enumeration, closed
forms from the literature and ``Fraction`` arithmetic.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

HARDY_MAX = (5 * math.sqrt(5) - 11) / 2
KCBS_FREE_MAX = math.sqrt(5)
KCBS_CONSTRAINED_MAX = 2 + 1 / 9

# Event labels "ab|xy" (Alice outcome a for setting x, Bob outcome b for
# setting y) of the two paradoxes, restated here from the paper.
CHSH_POSITIVE = ("01|00", "01|10")
CHSH_ZEROS = ("11|00", "00|01", "11|10", "01|11")
HARDY_POSITIVE = ("00|00",)
HARDY_ZEROS = ("00|01", "00|10", "11|11")

PENTAGON_EDGES = tuple((i, (i + 1) % 5) for i in range(5))
PENTAGON_SATURATIONS = ((0, 1), (2, 3))

FEASIBILITY_TOL = 1e-8
SUPREMUM_SLACK = 1e-6
LOCAL_BOUND_TOL = 1e-6
THETA_CLOSED_FORM_TOL = 1e-6
CERTIFICATE_TOL = 1e-9
EDGE_ENTRY_TOL = 1e-12


# ---------------------------------------------------------------------------
# Two-qubit models


def _setting_projector(theta: float, phi: float, setting: int, outcome: int) -> np.ndarray:
    """Projector of one qubit measurement: setting 0 is the computational
    basis, setting 1 has outcome-0 ket cos(t/2)|0> + e^{i p} sin(t/2)|1>."""
    if setting == 0:
        ket = np.array([1.0, 0.0], dtype=complex)
    else:
        ket = np.array([math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2)])
    p0 = np.outer(ket, ket.conj())
    return p0 if outcome == 0 else np.eye(2) - p0


def bell_probabilities(model: dict, labels: Sequence[str]) -> list[float]:
    """P(ab|xy) = <psi| P_a^x (x) P_b^y |psi> from a ``BellLocalModel`` JSON."""
    a, b, c, d = model["amplitudes"]
    pb, pc, pd = model["phases"]
    psi = np.array([a, b * cmath.exp(1j * pb), c * cmath.exp(1j * pc), d * cmath.exp(1j * pd)])
    out = []
    for label in labels:
        outcomes, settings = label.split("|")
        alice = _setting_projector(model["theta_a1"], model["phi_a1"], int(settings[0]), int(outcomes[0]))
        bob = _setting_projector(model["theta_b1"], model["phi_b1"], int(settings[1]), int(outcomes[1]))
        out.append(float((psi.conj() @ np.kron(alice, bob) @ psi).real))
    return out


def check_two_qubit_model(
    model: dict,
    positive: Sequence[str],
    zeros: Sequence[str],
    value: float,
    tol: float = FEASIBILITY_TOL,
) -> list[str]:
    """Zero events below ``tol``; positive events sum to the reported value."""
    errors = []
    norm = sum(x * x for x in model["amplitudes"])
    if abs(norm - 1.0) > 1e-12:
        errors.append(f"state norm^2 {norm!r} is not 1")
    for label, p in zip(zeros, bell_probabilities(model, zeros)):
        if p > tol:
            errors.append(f"zero event {label} has probability {p:.3e} > {tol:.0e}")
    total = sum(bell_probabilities(model, positive))
    if abs(total - value) > 1e-10:
        errors.append(f"positive events sum to {total!r}, reported {value!r}")
    return errors


def check_local_restarts(restarts: Sequence[tuple[bool, float, Optional[str]]]) -> list[str]:
    """Every feasible CHSH-local restart stays at the supremum 0 and lands
    in one of the two structural branches."""
    errors = []
    for index, (feasible, value, classification) in enumerate(restarts):
        if not feasible:
            continue
        if value > LOCAL_BOUND_TOL:
            errors.append(f"restart {index}: value {value:.3e} > {LOCAL_BOUND_TOL:.0e}")
        if classification not in ("compatible_measurements", "product_state"):
            errors.append(f"restart {index}: classified {classification}")
    return errors


def check_supremum(values: Sequence[float], supremum: float, what: str) -> list[str]:
    """No feasible restart exceeds the supremum by more than the slack."""
    return [
        f"{what}: restart {index} reaches {value!r} > {supremum!r} + {SUPREMUM_SLACK:.0e}"
        for index, value in enumerate(values)
        if value > supremum + SUPREMUM_SLACK
    ]


def check_close(value: float, target: float, tol: float, what: str) -> list[str]:
    if abs(value - target) <= tol:
        return []
    return [f"{what}: {value!r} is {abs(value - target):.3e} from {target!r} (tol {tol:.0e})"]


def check_kcbs_vectors(vectors: Sequence[Sequence[float]], constrained: bool, value: float) -> list[str]:
    """Unit vectors, orthogonal on pentagon edges, saturations met, and the
    handle e_0 giving back the reported vertex sum."""
    v = np.asarray(vectors, dtype=float)
    errors = []
    norms = np.einsum("ij,ij->i", v, v)
    if np.max(np.abs(norms - 1.0)) > 1e-12:
        errors.append(f"vector norms^2 {norms.tolist()} are not 1")
    for i, j in PENTAGON_EDGES:
        overlap = float(v[i] @ v[j])
        if abs(overlap) > FEASIBILITY_TOL:
            errors.append(f"edge ({i},{j}) overlap {overlap:.3e}")
    p = v[:, 0] ** 2
    if constrained:
        for i, j in PENTAGON_SATURATIONS:
            if abs(p[i] + p[j] - 1.0) > FEASIBILITY_TOL:
                errors.append(f"saturation ({i},{j}) sums to {p[i] + p[j]!r}")
    if abs(float(p.sum()) - value) > 1e-10:
        errors.append(f"vertex sum {float(p.sum())!r}, reported {value!r}")
    return errors


# ---------------------------------------------------------------------------
# Graphs: vertices are 0..n-1, edges (i, j) with i < j, weights exact or float


def _subset_table(n: int, edges: Sequence[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """All 2^n vertex subsets as bit rows, and a mask of the independent ones."""
    subsets = np.arange(1 << n, dtype=np.int64)
    bits = (subsets[:, None] >> np.arange(n)) & 1
    independent = np.ones(1 << n, dtype=bool)
    for i, j in edges:
        independent &= (bits[:, i] & bits[:, j]) == 0
    return bits, independent


def _scaled_weights(weights: Sequence) -> tuple[np.ndarray, int]:
    """Integer weights and their common denominator (exact for Fractions)."""
    fractions = [Fraction(w) for w in weights]
    den = math.lcm(*(f.denominator for f in fractions))
    return np.array([int(f * den) for f in fractions], dtype=np.int64), den


def brute_force_alpha(n: int, edges: Sequence[tuple[int, int]], weights: Sequence) -> Fraction:
    """Maximum weight of an independent set, by enumerating every subset."""
    bits, independent = _subset_table(n, edges)
    scaled, den = _scaled_weights(weights)
    totals = bits[independent] @ scaled
    return Fraction(int(totals.max()), den)


def check_alpha(
    value, witness: Sequence[int], n: int, edges: Sequence[tuple[int, int]], weights: Sequence,
    reference: Optional[Fraction] = None,
) -> list[str]:
    """alpha equals brute force; the witness is independent and attains it."""
    reference = brute_force_alpha(n, edges, weights) if reference is None else reference
    errors = []
    if Fraction(value) != reference:
        errors.append(f"alpha {value} != brute force {reference}")
    chosen = set(witness)
    if any(i in chosen and j in chosen for i, j in edges):
        errors.append(f"witness {sorted(chosen)} is not independent")
    if sum((Fraction(weights[i]) for i in chosen), Fraction(0)) != Fraction(value):
        errors.append(f"witness {sorted(chosen)} does not weigh {value}")
    return errors


def clique_cover_weight(n: int, edges: Sequence[tuple[int, int]], weights: Sequence) -> Fraction:
    """Weight of a greedy partition into cliques (sum of each clique's
    heaviest vertex), an upper bound on theta."""
    adjacent = {(i, j) for i, j in edges} | {(j, i) for i, j in edges}
    left = sorted(range(n), key=lambda v: (-Fraction(weights[v]), v))
    total = Fraction(0)
    while left:
        clique = [left[0]]
        for v in left[1:]:
            if all((v, u) in adjacent for u in clique):
                clique.append(v)
        total += max(Fraction(weights[v]) for v in clique)
        left = [v for v in left if v not in clique]
    return total


def odd_cycle_theta(n: int) -> float:
    return n * math.cos(math.pi / n) / (1 + math.cos(math.pi / n))


def check_theta(
    theta: dict,
    certificate: np.ndarray,
    n: int,
    edges: Sequence[tuple[int, int]],
    weights: Sequence,
    alpha,
    cover: Fraction,
    closed_form: Optional[float] = None,
) -> list[str]:
    """Sandwich alpha <= theta <= clique cover, closed form where one is
    known, and the primal certificate: symmetric PSD, trace 1, zero on every
    edge, attaining ``primal_value``."""
    errors = []
    value, primal, dual = theta["value"], theta["primal_value"], theta["dual_value"]
    if not primal <= value <= dual:
        errors.append(f"value {value!r} outside [{primal!r}, {dual!r}]")
    if abs(value - 0.5 * (primal + dual)) > 1e-12 * max(1.0, abs(value)):
        errors.append(f"value {value!r} is not the midpoint of [{primal!r}, {dual!r}]")
    if float(alpha) > dual + CERTIFICATE_TOL:
        errors.append(f"alpha {alpha} above the dual bound {dual!r}")
    if primal > float(cover) + CERTIFICATE_TOL:
        errors.append(f"primal {primal!r} above the clique cover weight {cover}")
    if closed_form is not None and abs(value - closed_form) > THETA_CLOSED_FORM_TOL:
        errors.append(f"theta {value!r} differs from the closed form {closed_form!r}")
    X = np.asarray(certificate, dtype=float)
    if X.shape != (n, n):
        return errors + [f"certificate shape {X.shape} != {(n, n)}"]
    if np.max(np.abs(X - X.T)) > EDGE_ENTRY_TOL:
        errors.append("certificate is not symmetric")
    lam_min = float(np.linalg.eigvalsh(0.5 * (X + X.T))[0])
    if lam_min < -CERTIFICATE_TOL:
        errors.append(f"certificate has eigenvalue {lam_min:.3e} < 0")
    if abs(float(np.trace(X)) - 1.0) > CERTIFICATE_TOL:
        errors.append(f"certificate trace {float(np.trace(X))!r} != 1")
    for i, j in edges:
        if abs(X[i, j]) > EDGE_ENTRY_TOL:
            errors.append(f"certificate entry ({i},{j}) on an edge is {X[i, j]:.3e}")
    root = np.sqrt([float(w) for w in weights])
    attained = float(root @ X @ root)
    if abs(attained - primal) > CERTIFICATE_TOL * max(1.0, abs(primal)):
        errors.append(f"certificate attains {attained!r}, primal_value {primal!r}")
    return errors


def check_theta_product(dual: float, complement_dual: float, n: int) -> list[str]:
    """theta(G) * theta(complement of G) >= n for unit weights."""
    if dual * complement_dual >= n - CERTIFICATE_TOL:
        return []
    return [f"dual(G) * dual(co-G) = {dual * complement_dual!r} < n = {n}"]


# ---------------------------------------------------------------------------
# The exact ququart construction


def exact_overlap_sq(vector: tuple, den_sq: int, handle: tuple, handle_den_sq: int) -> Fraction:
    """|<v|h>|^2 for Gaussian-integer entries over sqrt(den_sq), in Fractions."""
    re = sum(vr * hr + vi * hi for (vr, vi), (hr, hi) in zip(vector, handle))
    im = sum(vr * hi - vi * hr for (vr, vi), (hr, hi) in zip(vector, handle))
    return Fraction(re * re + im * im, den_sq * handle_den_sq)


def check_construction(vectors: dict, handle: tuple) -> list[str]:
    """Positive pair p(1|1) + p(1|8) = 1/6 and vertex sum 19/6, recomputed
    exactly from the vectors ``{id: (entries, den_sq)}`` and the handle."""
    probs = {vid: exact_overlap_sq(num, den, *handle) for vid, (num, den) in vectors.items()}
    errors = []
    if probs[1] + probs[8] != Fraction(1, 6):
        errors.append(f"p(1|1) + p(1|8) = {probs[1] + probs[8]} != 1/6")
    if sum(probs.values()) != Fraction(19, 6):
        errors.append(f"vertex sum {sum(probs.values())} != 19/6")
    return errors
