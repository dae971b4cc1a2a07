"""Graph invariants bounding classical and quantum event-sum values.

For an exclusivity graph G with vertex weights w, any noncontextual model
obeys  sum_i w_i P(e_i) <= alpha_w(G)  (the weighted independence number),
while quantum models reach up to the Lovasz number theta_w(G).  Both are
computed exactly enough to certify the instances handled here: alpha by
bitmask branch and bound, theta by a self-contained dual barrier method for
the semidefinite program

    maximize    <J_w, X>
    subject to  tr X = 1,  X_ij = 0 for every edge (i,j),  X PSD,

whose dual is  min t  s.t.  t*I + sum_edges lam_ij E_ij - J_w  PSD.  On the
central path the matrix X(mu) = mu * S(mu)^{-1} is exactly primal feasible
and the duality gap equals n*mu, so driving mu down yields a certified
sandwich around theta.

Orthonormal representations of the complement (unit vector per vertex,
adjacent vertices orthogonal) give constructive lower bounds on theta via
sum_i w_i |<v_i|psi>|^2 for any unit handle psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Optional

import numpy as np

from .scenario import ExclusivityGraph, GraphVertex, Weight


class GraphTooLargeError(ValueError):
    """The graph exceeds the size supported by an exact computation."""


class ThetaNonConvergenceError(RuntimeError):
    """The interior-point solve did not reach the requested gap.

    Carries the best bounds obtained so far in ``best_primal``/``best_dual``.
    """

    def __init__(self, message: str, best_primal: float, best_dual: float):
        super().__init__(message)
        self.best_primal = best_primal
        self.best_dual = best_dual


def complete_graph(n: int) -> ExclusivityGraph:
    return ExclusivityGraph(
        vertices=tuple(GraphVertex(id=i) for i in range(n)),
        edges=tuple((i, j) for i in range(n) for j in range(i + 1, n)),
    )


def cycle_graph(n: int) -> ExclusivityGraph:
    return ExclusivityGraph(
        vertices=tuple(GraphVertex(id=i) for i in range(n)),
        edges=tuple((i, (i + 1) % n) for i in range(n)) if n > 2 else (((0, 1),) if n == 2 else ()),
    )


def edgeless_graph(n: int) -> ExclusivityGraph:
    return ExclusivityGraph(vertices=tuple(GraphVertex(id=i) for i in range(n)), edges=())


def complement(graph: ExclusivityGraph) -> ExclusivityGraph:
    """Same vertices (events and weights kept), complemented edge set."""
    ids = graph.vertex_ids()
    present = set(graph.edges)
    edges = tuple(
        (ids[a], ids[b])
        for a in range(len(ids))
        for b in range(a + 1, len(ids))
        if (ids[a], ids[b]) not in present
    )
    return ExclusivityGraph(vertices=graph.vertices, edges=edges)


# ---------------------------------------------------------------------------
# Independence number


def independence_number(graph: ExclusivityGraph) -> tuple[Weight, tuple[int, ...]]:
    """Exact maximum-weight independent set: (value, witness vertex ids).

    Branch and bound over bitmasks; branches include the lowest-id candidate
    vertex first, so ties resolve to the canonically smallest witness.  The
    upper bound partitions the candidates greedily into cliques (each clique
    contributes at most its heaviest vertex).  Limited to 32 vertices.
    """
    n = graph.n
    if n > 32:
        raise GraphTooLargeError(f"independence_number supports <= 32 vertices, got {n}")
    if n == 0:
        return 0, ()
    ids = graph.vertex_ids()
    index = {vid: k for k, vid in enumerate(ids)}
    weights = [v.weight for v in graph.vertices]
    adj = [0] * n
    for i, j in graph.edges:
        adj[index[i]] |= 1 << index[j]
        adj[index[j]] |= 1 << index[i]

    def clique_bound(mask: int) -> Weight:
        bound: Weight = 0
        rem = mask
        while rem:
            v = (rem & -rem).bit_length() - 1
            clique = 1 << v
            best_w = weights[v]
            cand = rem & adj[v]
            while cand:
                u = (cand & -cand).bit_length() - 1
                clique |= 1 << u
                if weights[u] > best_w:
                    best_w = weights[u]
                cand &= adj[u]
            bound += best_w
            rem &= ~clique
        return bound

    best_value: Weight = -1
    best_set = 0

    def dfs(mask: int, picked: int, value: Weight):
        nonlocal best_value, best_set
        if mask == 0:
            if value > best_value:
                best_value, best_set = value, picked
            return
        if value + clique_bound(mask) <= best_value:
            return
        v = (mask & -mask).bit_length() - 1
        dfs(mask & ~(adj[v] | (1 << v)), picked | (1 << v), value + weights[v])
        dfs(mask & ~(1 << v), picked, value)

    dfs((1 << n) - 1, 0, 0)
    witness = tuple(ids[k] for k in range(n) if best_set >> k & 1)
    return best_value, witness


# ---------------------------------------------------------------------------
# Lovasz theta


@dataclass(frozen=True)
class ThetaResult:
    """Certified value of the theta SDP.

    ``value`` is the midpoint of the primal/dual sandwich, so it sits within
    ``duality_gap / 2`` of the true optimum.  ``primal_certificate`` is a
    feasible PSD matrix attaining ``primal_value``.
    """

    value: float
    primal_value: float
    dual_value: float
    duality_gap: float
    primal_certificate: np.ndarray
    iterations: int

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "primal_value": self.primal_value,
            "dual_value": self.dual_value,
            "duality_gap": self.duality_gap,
            "iterations": self.iterations,
        }


def _connected_components(graph: ExclusivityGraph) -> list[list[int]]:
    adj = graph.adjacency()
    seen: set[int] = set()
    components = []
    for start in sorted(graph.vertex_ids()):
        if start in seen:
            continue
        component: set[int] = set()
        stack = [start]
        while stack:
            v = stack.pop()
            if v in component:
                continue
            component.add(v)
            stack.extend(adj[v] - component)
        seen |= component
        components.append(sorted(component))
    return components


def lovasz_theta(
    graph: ExclusivityGraph,
    accuracy: float = 1e-7,
    max_newton_iterations: int = 5000,
) -> ThetaResult:
    """Weighted Lovasz number with duality gap at most ``accuracy``.

    Theta is additive over connected components, so disconnected graphs are
    solved per component (sharper and better conditioned) and reassembled.
    An isolated vertex has theta = w in closed form: certificate [[1]], gap 0
    and no Newton steps, so an edgeless graph's theta is its exact weight sum.
    """
    n = graph.n
    if n == 0:
        raise ValueError("empty graph")
    if n > 16:
        raise GraphTooLargeError(f"lovasz_theta supports <= 16 vertices, got {n}")
    if accuracy < 1e-7:
        raise ValueError("accuracy below 1e-7 is not supported")

    components = _connected_components(graph)
    if len(components) > 1:
        result = _theta_from_components(graph, components, accuracy, max_newton_iterations)
    else:
        result = _lovasz_theta_connected(graph, accuracy, max_newton_iterations)
    if result.duality_gap > accuracy:
        raise ThetaNonConvergenceError(
            f"gap {result.duality_gap:.3e} above accuracy {accuracy:.1e} "
            f"after {result.iterations} Newton iterations",
            best_primal=result.primal_value,
            best_dual=result.dual_value,
        )
    return result


def _combine_certificates(
    X1: np.ndarray, sw1: np.ndarray, p1: float, X2: np.ndarray, sw2: np.ndarray, p2: float
) -> tuple[np.ndarray, float]:
    """Merge feasible certificates of vertex-disjoint graphs.

    With a = X1 sw1 / sqrt(p1) and b = X2 sw2 / sqrt(p2) the block matrix
    [[alpha X1, gamma a b^T], [gamma b a^T, beta X2]] is feasible for the
    union (cross entries are unconstrained) and attains p1 + p2 when
    alpha = p1/(p1+p2) and gamma = sqrt(alpha beta): theta is additive over
    components exactly because of these cross terms.
    """
    n1, n2 = len(sw1), len(sw2)
    if n1 == 0:
        return X2, p2
    total = p1 + p2
    if total <= 0.0:
        X = np.zeros((n1 + n2, n1 + n2))
        X[:n1, :n1] = 0.5 * X1
        X[n1:, n1:] = 0.5 * X2
        return X, 0.0
    alpha, beta = p1 / total, p2 / total
    X = np.zeros((n1 + n2, n1 + n2))
    X[:n1, :n1] = alpha * X1
    X[n1:, n1:] = beta * X2
    if p1 > 0.0 and p2 > 0.0:
        a = X1 @ sw1 / math.sqrt(p1)
        b = X2 @ sw2 / math.sqrt(p2)
        cross = math.sqrt(alpha * beta) * np.outer(a, b)
        X[:n1, n1:] = cross
        X[n1:, :n1] = cross.T
    return X, total


def _theta_from_components(
    graph: ExclusivityGraph,
    components: list[list[int]],
    accuracy: float,
    max_newton_iterations: int,
) -> ThetaResult:
    """Theta per component (isolated vertices in closed form), summed."""
    order: list[int] = []
    X_accum = np.zeros((0, 0))
    sw_accum = np.zeros(0)
    primal_accum = 0.0
    dual = 0.0
    iterations = 0
    for component in components:
        keep = set(component)
        sub = ExclusivityGraph(
            vertices=tuple(v for v in graph.vertices if v.id in keep),
            edges=tuple(e for e in graph.edges if e[0] in keep),
        )
        part = _lovasz_theta_connected(
            sub, accuracy / len(components), max_newton_iterations
        )
        sw_part = np.sqrt([float(v.weight) for v in sub.vertices])
        X_accum, primal_accum = _combine_certificates(
            X_accum, sw_accum, primal_accum,
            part.primal_certificate, sw_part, part.primal_value,
        )
        sw_accum = np.concatenate([sw_accum, sw_part])
        order.extend(component)
        dual += part.dual_value
        iterations += part.iterations

    ids = graph.vertex_ids()
    pos = {vid: k for k, vid in enumerate(ids)}
    perm = np.zeros((len(ids), len(ids)))
    for where, vid in enumerate(order):
        perm[pos[vid], where] = 1.0
    X = perm @ X_accum @ perm.T
    primal = float(primal_accum)
    return ThetaResult(
        value=0.5 * (primal + dual),
        primal_value=primal,
        dual_value=dual,
        duality_gap=dual - primal,
        primal_certificate=X,
        iterations=iterations,
    )


def _lovasz_theta_connected(
    graph: ExclusivityGraph,
    accuracy: float,
    max_newton_iterations: int,
) -> ThetaResult:
    n = graph.n
    ids = graph.vertex_ids()
    index = {vid: k for k, vid in enumerate(ids)}
    w = np.array([float(v.weight) for v in graph.vertices])
    if n == 1:  # an isolated vertex: theta = w exactly, no barrier path
        value = float(w[0])
        return ThetaResult(value, value, value, 0.0, np.ones((1, 1)), 0)
    sw = np.sqrt(w)
    Jw = np.outer(sw, sw)
    # edges are unique with i < j, so each fancy-indexed entry is hit once
    I, J = np.array([(index[i], index[j]) for i, j in graph.edges]).T
    m = len(I)
    scale = max(1.0, float(np.sum(w)))

    def dual_matrix(y: np.ndarray) -> np.ndarray:
        S = -Jw.copy()
        S[np.diag_indices(n)] += y[0]
        S[I, J] += y[1:]
        S[J, I] += y[1:]
        return S

    y = np.zeros(1 + m)
    y[0] = float(np.linalg.eigvalsh(Jw)[-1]) + 1.0
    mu = scale
    mu_target = accuracy / (8.0 * max(n, 1))
    newton_total = 0

    def center(mu: float) -> None:
        nonlocal y, newton_total
        for _ in range(80):
            if newton_total >= max_newton_iterations:
                return
            S = dual_matrix(y)
            Sinv = np.linalg.inv(S)
            Sinv = 0.5 * (Sinv + Sinv.T)
            g = np.empty(1 + m)
            g[0] = 1.0 - mu * float(np.trace(Sinv))
            g[1:] = -2.0 * mu * Sinv[I, J]
            H = np.empty((1 + m, 1 + m))
            H[0, 0] = mu * float(np.sum(Sinv * Sinv))
            Sinv2 = Sinv @ Sinv
            H[0, 1:] = H[1:, 0] = 2.0 * mu * Sinv2[I, J]
            # Sinv is exactly symmetric, so this block is too
            H[1:, 1:] = 2.0 * mu * (Sinv[np.ix_(I, I)] * Sinv[np.ix_(J, J)]
                                    + Sinv[np.ix_(I, J)] * Sinv[np.ix_(J, I)])
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                return
            decrement_sq = float(-g @ step)
            alpha = 1.0
            for _ in range(60):
                try:
                    np.linalg.cholesky(dual_matrix(y + alpha * step))
                    break
                except np.linalg.LinAlgError:
                    alpha *= 0.5
            else:
                return
            y = y + alpha * step
            newton_total += 1
            if decrement_sq < 1e-22 * scale * scale:
                return

    def extract() -> tuple[float, float, np.ndarray]:
        # X = mu * S^-1 is central-path feasible up to roundoff; repair by
        # alternating exact edge zeroing with eigenvalue clipping (the
        # perturbations shrink geometrically), then renormalize the trace
        S = dual_matrix(y)
        Sinv = np.linalg.inv(S)
        X = mu * Sinv
        # one round of iterative refinement on S X = mu I
        X = X + Sinv @ (mu * np.eye(n) - S @ X)
        X = 0.5 * (X + X.T)
        for _ in range(6):
            X[I, J] = X[J, I] = 0.0
            vals, vecs = np.linalg.eigh(X)
            if vals[0] >= -1e-14 * max(1.0, vals[-1]):
                break
            X = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
            X = 0.5 * (X + X.T)
        X[I, J] = X[J, I] = 0.0
        lam_min = float(np.linalg.eigvalsh(X)[0])
        if lam_min < 0.0:
            delta = -1.5 * lam_min
            X = X + delta * np.eye(n)
            X[I, J] = X[J, I] = 0.0
        X /= np.trace(X)
        return float(np.sum(Jw * X)), float(y[0]), X

    # the independent-set indicator is an exact rank-one feasible point with
    # value alpha_w; it beats the repaired central X at degenerate optima
    # where theta == alpha and the extraction conditioning is poor
    _, alpha_witness = independence_number(graph)
    u = np.where(np.isin(ids, alpha_witness), sw, 0.0)
    norm_sq = float(u @ u)
    X_alpha = np.outer(u, u) / norm_sq if norm_sq > 0 else np.eye(n) / n
    primal_alpha = float(np.sum(Jw * X_alpha))

    best = (primal_alpha, float("inf"), X_alpha)
    retries = 0
    # extract a candidate certificate at every late stage: the extraction
    # noise varies along the path and the best sample wins
    extract_from = 1e-4 * scale
    while True:
        center(mu)
        late = mu <= extract_from
        if late or mu <= mu_target * 1.0000001:
            primal, dual, X = extract()
            if primal > best[0]:
                best = (primal, min(dual, best[1]), X)
            else:
                best = (best[0], min(dual, best[1]), best[2])
        if mu <= mu_target * 1.0000001:
            if best[1] - best[0] <= accuracy:
                break
            # smaller mu shrinks the central-path gap but worsens the
            # conditioning of the extraction, so only retry a few times
            if retries >= 3 or newton_total >= max_newton_iterations:
                break
            retries += 1
            mu_target *= 0.1
        # descend gently through the extraction sweet spot for more samples
        factor = 0.4 if mu <= 1e-5 * scale else 0.15
        mu = max(factor * mu, mu_target)

    primal, dual, X = best
    gap = dual - primal
    return ThetaResult(
        value=0.5 * (primal + dual),
        primal_value=primal,
        dual_value=dual,
        duality_gap=gap,
        primal_certificate=X,
        iterations=newton_total,
    )


# ---------------------------------------------------------------------------
# Odd holes


def find_odd_holes(graph: ExclusivityGraph, length: int) -> list[tuple[int, ...]]:
    """All induced chordless cycles of the given odd length >= 5.

    Each cycle is reported once, as a vertex sequence starting at its
    smallest id with the smaller neighbour second.
    """
    if length % 2 == 0 or length < 5:
        raise ValueError("length must be odd and at least 5")
    if graph.n > 32:
        raise GraphTooLargeError("find_odd_holes supports <= 32 vertices")
    adj = graph.adjacency()
    ids = sorted(graph.vertex_ids())
    holes: list[tuple[int, ...]] = []

    def extend(path: list[int], banned: set[int]):
        start = path[0]
        if len(path) == length:
            if start in adj[path[-1]]:
                if path[1] < path[-1]:
                    holes.append(tuple(path))
            return
        for w in sorted(adj[path[-1]]):
            if w <= start or w in banned:
                continue
            # chordless: w may touch the path only at its tip; the start is
            # exempt while w sits at position 1 or closes the cycle
            inner = adj[w] & set(path[:-1])
            if len(path) == 1 or len(path) == length - 1:
                inner -= {start}
            if inner:
                continue
            extend(path + [w], banned | {w})

    for s in ids:
        extend([s], {s})
    return holes


# ---------------------------------------------------------------------------
# Orthonormal representations


@dataclass(frozen=True)
class OrthonormalRepresentation:
    """Unit vector per vertex, orthogonal across edges, plus optional handle.

    Vectors are ``quantum.StateVector`` instances (exact or float); only
    their ``is_exact``/``norm_sq``/``inner``/``inner_is_zero`` interface is
    used here.
    """

    dimension: int
    vectors: Mapping[int, Any]
    handle: Optional[Any] = None


@dataclass(frozen=True)
class OrthonormalityReport:
    unit_violations: tuple[tuple[int, float], ...]
    edge_violations: tuple[tuple[tuple[int, int], float], ...]

    @property
    def valid(self) -> bool:
        return not self.unit_violations and not self.edge_violations

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "unit_violations": [[vid, r] for vid, r in self.unit_violations],
            "edge_violations": [[list(e), r] for e, r in self.edge_violations],
        }


def verify_orthonormal_representation(
    graph: ExclusivityGraph,
    rep: OrthonormalRepresentation,
    float_tol: float = 1e-9,
) -> OrthonormalityReport:
    """Check unit norms and edge orthogonality of a representation.

    Exact vectors are checked exactly; float vectors within ``float_tol``.
    An empty report means the representation is valid for the graph.
    """
    missing = [vid for vid in graph.vertex_ids() if vid not in rep.vectors]
    if missing:
        raise ValueError(f"representation misses vectors for vertices {missing}")
    unit = []
    for vid in graph.vertex_ids():
        v = rep.vectors[vid]
        if v.is_exact:
            if v.norm_sq() != 1:
                unit.append((vid, abs(float(v.norm_sq()) - 1.0)))
        else:
            residual = abs(float(v.norm_sq()) - 1.0)
            if residual > float_tol:
                unit.append((vid, residual))
    edge = []
    for i, j in graph.edges:
        u, v = rep.vectors[i], rep.vectors[j]
        if u.is_exact and v.is_exact:
            if not u.inner_is_zero(v):
                edge.append(((i, j), abs(u.inner(v))))
        else:
            overlap = abs(u.inner(v))
            if overlap > float_tol:
                edge.append(((i, j), overlap))
    return OrthonormalityReport(unit_violations=tuple(unit), edge_violations=tuple(edge))


def theta_lower_bound(
    graph: ExclusivityGraph,
    rep: OrthonormalRepresentation,
    validate: bool = True,
) -> Weight:
    """sum_i w_i |<v_i|psi>|^2 for the representation's handle.

    Any valid representation keeps this below theta of the graph, so the
    returned number is a constructive lower bound.  Exact inputs give an
    exact Fraction.
    """
    if rep.handle is None:
        raise ValueError("representation has no handle vector")
    if validate:
        report = verify_orthonormal_representation(graph, rep)
        if not report.valid:
            raise ValueError(f"invalid representation: {report.to_json()}")
    total: Weight = 0
    for v in graph.vertices:
        p = rep.vectors[v.id].born(rep.handle)
        term = v.weight * p
        total = total + term
    return total


# ---------------------------------------------------------------------------
# Graph isomorphism


def find_vertex_event_mapping(
    graph_a: ExclusivityGraph,
    graph_b: ExclusivityGraph,
    pins: Optional[Mapping[int, int]] = None,
) -> Optional[dict[int, int]]:
    """Vertex-id isomorphism from ``graph_a`` onto ``graph_b``, or None.

    Backtracking with degree pruning.  ``pins`` forces specific assignments
    (pinned vertices are placed first); among valid mappings the first one in
    canonical order (vertices and candidates by ascending id) is returned, so
    the result is deterministic.
    """
    if graph_a.n != graph_b.n:
        return None
    ids_a = sorted(graph_a.vertex_ids())
    ids_b = sorted(graph_b.vertex_ids())
    adj_a = graph_a.adjacency()
    adj_b = graph_b.adjacency()
    deg_a = {v: len(adj_a[v]) for v in ids_a}
    deg_b = {v: len(adj_b[v]) for v in ids_b}
    if sorted(deg_a.values()) != sorted(deg_b.values()):
        return None
    pins = dict(pins or {})
    for a, b in pins.items():
        if a not in deg_a or b not in deg_b or deg_a[a] != deg_b[b]:
            return None

    order = sorted(pins) + [v for v in ids_a if v not in pins]
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def candidates(a: int) -> list[int]:
        if a in pins:
            return [pins[a]]
        return [b for b in ids_b if b not in used and deg_b[b] == deg_a[a]]

    def consistent(a: int, b: int) -> bool:
        for a2, b2 in mapping.items():
            if (a2 in adj_a[a]) != (b2 in adj_b[b]):
                return False
        return True

    def search(k: int) -> bool:
        if k == len(order):
            return True
        a = order[k]
        for b in candidates(a):
            if b in used or not consistent(a, b):
                continue
            mapping[a] = b
            used.add(b)
            if search(k + 1):
                return True
            del mapping[a]
            used.remove(b)
        return False

    return dict(mapping) if search(0) else None
