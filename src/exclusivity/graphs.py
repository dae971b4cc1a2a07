"""Graph invariants bounding classical and quantum event-sum values.

For an exclusivity graph G with vertex weights w, any noncontextual model
obeys  sum_i w_i P(e_i) <= alpha_w(G)  (the weighted independence number),
while quantum models reach up to the Lovasz number theta_w(G).  Both are
computed exactly enough to certify the instances handled here: alpha by
bitmask branch and bound, theta by a self-contained primal-dual
interior-point method for the semidefinite program

    maximize    <J_w, X>
    subject to  tr X = 1,  X_ij = 0 for every edge (i,j),  X PSD,

whose dual is  min t  s.t.  S = t*I + sum_edges lam_ij E_ij - J_w  PSD.  From
exactly feasible starts, Mehrotra predictor-corrector steps along the HKM
direction (Helmberg, Rendl, Vanderbei and Wolkowicz, SIOPT 1996) give a
certified sandwich at every iterate: t once S passes Cholesky, and X with its
edge entries zeroed, shifted to PSD and scaled to trace 1.  Each step goes a
fraction gamma of the way to the PSD boundary, gamma = max(0.95, 0.9 +
0.09 min(tp, td)) from the previous corrector's step lengths tp and td
(SDPT3's rule; Toh, Todd and Tutuncu, Optim. Methods Softw. 1999), so the
steps lengthen as the iterates settle.  Before any of that, alpha_w <=
theta_w <= alpha*_w, the fractional packing number, which by LP duality is
the least weight of a fractional clique cover (Lovasz 1979): when a
budgeted search finds a clique partition of weight alpha_w, each clique
anchored on one vertex of alpha's witness, or else the simplex for alpha*
ends at alpha_w with an optimal dual that checks in exact arithmetic as a
cover of that weight, theta is alpha_w exactly, certified by the
independent set's indicator, and no interior-point iteration runs.

Orthonormal representations of the complement (unit vector per vertex,
adjacent vertices orthogonal) give constructive lower bounds on theta via
sum_i w_i |<v_i|psi>|^2 for any unit handle psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping, Optional

import numpy as np

from .scenario import ExclusivityGraph, GraphVertex, Weight


ALPHA_MAX_VERTICES = 32
THETA_MAX_VERTICES = 16


class GraphTooLargeError(ValueError):
    """The graph exceeds the size supported by an exact computation."""


class ThetaNonConvergenceError(RuntimeError):
    """The interior-point solve did not reach the requested gap.

    Raised when the iteration cap is reached, or roundoff costs the iterates
    their definiteness, before the gap falls to ``accuracy``.  Carries the
    best certified bounds so far in ``best_primal`` (never below alpha) and
    ``best_dual``.
    """

    def __init__(self, message: str, best_primal: float, best_dual: float):
        super().__init__(message)
        self.best_primal = best_primal
        self.best_dual = best_dual


def cycle_graph(n: int) -> ExclusivityGraph:
    return ExclusivityGraph(
        vertices=tuple(GraphVertex(id=i) for i in range(n)),
        edges=tuple((i, (i + 1) % n) for i in range(n)) if n > 1 else (),
    )


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


def _bitmasks(graph: ExclusivityGraph) -> tuple[list[Weight], list[int]]:
    """Vertex weights and neighbour bitmasks, vertices in id order."""
    index = {vid: k for k, vid in enumerate(graph.vertex_ids())}
    adj = [0] * graph.n
    for i, j in graph.edges:
        adj[index[i]] |= 1 << index[j]
        adj[index[j]] |= 1 << index[i]
    return [v.weight for v in graph.vertices], adj


def _clique_cover(mask: int, weights: list[Weight], adj: list[int]) -> Weight:
    """Weight of a greedy partition of ``mask`` into cliques, each clique
    costing its heaviest vertex: an exact upper bound on alpha_w and theta_w
    of the induced subgraph (dropping the edges between the cliques only
    raises theta, and a disjoint union of cliques has theta equal to the sum
    of their maxima)."""
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


def independence_number(graph: ExclusivityGraph) -> tuple[Weight, tuple[int, ...]]:
    """Exact maximum-weight independent set: (value, witness vertex ids).

    Branch and bound over bitmasks; branches include the lowest-id candidate
    vertex first, so ties resolve to the canonically smallest witness.  The
    upper bound is ``_clique_cover`` of the candidates.  Limited to
    ``ALPHA_MAX_VERTICES`` vertices.
    """
    n = graph.n
    if n > ALPHA_MAX_VERTICES:
        raise GraphTooLargeError(
            f"independence_number supports <= {ALPHA_MAX_VERTICES} vertices, got {n}"
        )
    if n == 0:
        return 0, ()
    weights, adj = _bitmasks(graph)
    best_value: Weight = -1
    best_set = 0

    def dfs(mask: int, picked: int, value: Weight):
        nonlocal best_value, best_set
        if mask == 0:
            if value > best_value:
                best_value, best_set = value, picked
            return
        if value + _clique_cover(mask, weights, adj) <= best_value:
            return
        v = (mask & -mask).bit_length() - 1
        dfs(mask & ~(adj[v] | (1 << v)), picked | (1 << v), value + weights[v])
        dfs(mask & ~(1 << v), picked, value)

    dfs((1 << n) - 1, 0, 0)
    ids = graph.vertex_ids()
    witness = tuple(ids[k] for k in range(n) if best_set >> k & 1)
    return best_value, witness


# ---------------------------------------------------------------------------
# Lovasz theta

# Cap on the interior-point iterations of one connected solve.  The benchmark's
# graph family reaches a 1e-7 gap in about 6 (at most 11), and random graphs of
# up to 16 vertices in at most 15, so the cap is only reached when the
# iterates stall.
THETA_MAX_ITERATIONS = 60

# Cap on the nodes of the anchored clique-partition search of one connected
# solve.  Random graphs of up to 16 vertices need at most a few hundred; past
# the cap the interior-point method runs, which costs time, never exactness.
THETA_PARTITION_MAX_NODES = 2000


def _anchored_clique_partition(
    weights: list[Weight], adj: list[int], witness: int, budget: int
) -> Optional[list[int]]:
    """Cliques partitioning the graph that weigh alpha_w, or None.

    ``witness`` is the bitmask of a maximum-weight independent set S.  Each
    positive-weight vertex outside S joins the clique of one adjacent s in S
    with w_s >= its own weight, adjacent to every vertex already there;
    zero-weight vertices outside S are left out (as singletons they cost 0).
    Returns one clique bitmask per vertex of S, in vertex order.  Each clique
    costs its heaviest vertex, its anchor s, so the partition weighs
    sum_{s in S} w_s = alpha_w: theta_w is alpha_w exactly.

    The search is complete.  In any clique partition of weight alpha_w each
    clique C holds at most one vertex of S, and sum_C max_C w >=
    sum_C w(C & S) = alpha_w, so equality puts in every positive-weight
    clique one vertex of S, its heaviest member.  Dropping the zero-weight
    vertices outside S from such a partition gives an assignment this search
    tries.  So it finds a partition whenever one exists, whichever maximum
    S it is given; in particular whenever the greedy ``_clique_cover`` weighs
    alpha_w.  Depth-first, the vertices with fewest anchors placed first;
    each call is a node, the root included, and after ``budget`` nodes the
    search gives up with None.
    """
    anchors = [s for s in range(len(weights)) if witness >> s & 1]
    todo = []
    for v, w in enumerate(weights):
        if witness >> v & 1 or w == 0:
            continue
        options = [s for s in anchors if adj[v] >> s & 1 and weights[s] >= w]
        if not options:
            return None
        todo.append((len(options), v, options))
    todo.sort()
    cliques = {s: 1 << s for s in anchors}
    nodes = 0

    def place(k: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            return False
        if k == len(todo):
            return True
        _, v, options = todo[k]
        for s in options:
            if cliques[s] & ~adj[v] == 0:
                cliques[s] |= 1 << v
                if place(k + 1):
                    return True
                cliques[s] &= ~(1 << v)
        return False

    return list(cliques.values()) if place(0) else None


# Cap on the simplex pivots of the fractional clique-cover check of one
# connected solve.  The benchmark's graphs need at most a few dozen; past the
# cap the interior-point method runs, which costs time, never exactness.
THETA_COVER_MAX_PIVOTS = 200


def _maximal_cliques(mask: int, adj: list[int]) -> list[int]:
    """Maximal cliques of the subgraph induced by ``mask`` (Bron-Kerbosch
    with pivoting), as bitmasks; ``[0]`` when ``mask`` is empty."""
    cliques = []

    def expand(clique: int, cand: int, done: int):
        if not cand | done:
            cliques.append(clique)
            return
        # the pivot has the most neighbours in cand; only the candidates it
        # is not adjacent to need branches of their own
        rest, most = cand | done, -1
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if (cand & adj[u]).bit_count() > most:
                pivot, most = u, (cand & adj[u]).bit_count()
        rest = cand & ~adj[pivot]
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            expand(clique | 1 << v, cand & adj[v], done & adj[v])
            cand &= ~(1 << v)
            done |= 1 << v

    expand(0, mask, 0)
    return cliques


def _fractional_clique_cover(
    weights: list[Weight], adj: list[int], witness: int
) -> Optional[tuple[int, list[tuple[int, int]]]]:
    """An exact fractional clique cover of weight alpha_w, or None.

    ``witness`` is the bitmask of a maximum-weight independent set S.
    Returns ``(q, [(clique, Y), ...])``: clique weights y_C = Y/q > 0 with
    sum_{C ni v} y_C >= w_v for every vertex and sum_C y_C = alpha_w.  Then
    theta_w is alpha_w exactly, since theta_w = max w.x over TH(G), which lies
    inside QSTAB(G) = {x >= 0 : x(C) <= 1 for every clique C}, whose LP dual
    is the fractional clique cover (Lovasz 1979; Grotschel, Lovasz and
    Schrijver 1986).  A clique partition is the integral case, so this
    closes whatever ``_anchored_clique_partition`` closes.

    The LP is alpha*_w = max w.x s.t. x(C) <= 1 over the maximal cliques C
    of G+, the subgraph induced by the positive-weight vertices (a
    zero-weight vertex gains nothing from x_v > 0), and a cover of weight
    alpha_w exists iff alpha*_w = alpha_w.  A dense float simplex starts
    from the slack basis, where x = 0 is feasible, so there is no phase one.
    It enters the most negative reduced cost and leaves by the minimum
    ratio, the lowest basis index on ties.  Every iterate is feasible, so
    once w.x passes alpha_w (by a relative 1e-9) alpha* does too and no
    cover weighs alpha_w: then, or after ``THETA_COVER_MAX_PIVOTS`` pivots,
    it returns None.  At the optimum the objective row holds the dual y on
    the slack columns; y has common denominator q = |det B| * lcm(weight
    denominators) for the final basis B, so y*q is rounded to integers Y
    and the cover is checked in exact arithmetic.  That check alone proves
    theta_w = alpha_w, so the primal needs none: roundoff (or a float
    weight, whose denominator makes q too large to round to) can cost a
    closure, never exactness.
    """
    alpha = sum(Fraction(w) for s, w in enumerate(weights) if witness >> s & 1)
    positive = [v for v, w in enumerate(weights) if w > 0]
    cliques = _maximal_cliques(sum(1 << v for v in positive), adj)
    m, k = len(cliques), len(positive)
    # tableau [A | I | 1]: x per positive vertex, a slack per clique and the
    # right-hand side, over a last row of reduced costs and the objective w.x
    T = np.zeros((m + 1, k + m + 1))
    T[:m, :k] = np.array(cliques)[:, None] >> np.array(positive, int) & 1
    T[:m, k:-1] = np.eye(m)
    T[:m, -1] = 1.0
    T[m, :k] = [-float(weights[v]) for v in positive]
    M = T[:m, :-1].copy()
    basis = list(range(k, k + m))
    limit = float(alpha) + 1e-9 * max(1.0, float(alpha))
    for _ in range(THETA_COVER_MAX_PIVOTS):
        c = np.argmin(T[m, :-1])
        if T[m, c] >= -1e-9:
            break
        col, rhs = T[:m, c].tolist(), T[:m, -1].tolist()
        rows = [i for i in range(m) if col[i] > 1e-9]
        if not rows:  # the LP is bounded; only roundoff gets here
            return None
        least = min(rhs[i] / col[i] for i in rows)
        r = min((i for i in rows if rhs[i] / col[i] <= least + 1e-9), key=basis.__getitem__)
        pivot_row = T[r] / T[r, c]
        T -= T[:, c, None] * pivot_row
        T[r] = pivot_row
        basis[r] = c
        if T[m, -1] > limit:  # alpha* > alpha_w: no cover weighs alpha_w
            return None
    else:
        return None

    exact = [Fraction(w) for w in weights]
    q = round(abs(np.linalg.det(M[:, basis]))) * math.lcm(*(w.denominator for w in exact))
    if not 0 < q <= 2**50:  # past 2**50, y*q is not held to within 1/2
        return None
    Y = [round(y * q) for y in T[m, k:-1].tolist()]
    if min(Y) < 0 or sum(Y) != alpha * q:
        return None
    for v in positive:
        if sum(y for c, y in zip(cliques, Y) if c >> v & 1) < exact[v] * q:
            return None
    return q, [(c, y) for c, y in zip(cliques, Y) if y > 0]


# Why a theta solve stopped, most favourable first: a clique partition or a
# fractional clique cover weighs alpha_w (theta exact), the gap reached the
# accuracy, the iteration cap, or roundoff cost the iterates their
# definiteness.
THETA_STOPS = ("clique_cover", "gap", "iteration_cap", "lost_definiteness")


@dataclass(frozen=True)
class ThetaResult:
    """Certified value of the theta SDP.

    ``value`` is the midpoint of the primal/dual sandwich, so it sits within
    ``duality_gap / 2`` of the true optimum.  ``primal_certificate`` is a
    feasible PSD matrix attaining ``primal_value``.  The dual bound is the
    interior-point dual, or a clique partition or fractional clique cover
    whose weight equals alpha_w: then ``stop`` is ``"clique_cover"`` and
    theta = alpha_w exactly, with gap 0, and the certificate is the rank-one
    indicator of alpha's witness.  ``stop`` is one of
    ``THETA_STOPS``.
    """

    value: float
    primal_value: float
    dual_value: float
    duality_gap: float
    primal_certificate: np.ndarray
    iterations: int
    stop: str

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "primal_value": self.primal_value,
            "dual_value": self.dual_value,
            "duality_gap": self.duality_gap,
            "iterations": self.iterations,
            "stop": self.stop,
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


def lovasz_theta(graph: ExclusivityGraph, accuracy: float = 1e-7) -> ThetaResult:
    """Weighted Lovasz number with duality gap at most ``accuracy``.

    Theta is additive over connected components, so disconnected graphs are
    solved per component (sharper and better conditioned) and reassembled.
    A component with a clique cover, fractional or not, of weight alpha_w
    has theta = alpha_w exactly (alpha_w <= theta_w <= any such cover): it
    is returned with the rank-one independent-set certificate, gap 0 and no
    iterations.  ``_anchored_clique_partition`` searches for a clique
    partition, at most ``THETA_PARTITION_MAX_NODES`` nodes per component,
    with each clique anchored on a vertex of alpha's witness; it finds one
    whenever one exists, unless the budget runs out first.  That covers
    every isolated vertex, so an edgeless graph's theta is its exact weight
    sum, every complete graph and every graph the greedy ``_clique_cover``
    closes.  Where it fails, ``_fractional_clique_cover`` solves the LP
    for alpha*_w, at most ``THETA_COVER_MAX_PIVOTS`` simplex pivots, stops
    as soon as its objective passes alpha_w, and checks the optimal dual
    exactly as a cover of weight alpha_w.  Other components run the
    interior-point method, whose iterations ``THETA_MAX_ITERATIONS`` caps.
    """
    n = graph.n
    if n == 0:
        raise ValueError("empty graph")
    if n > THETA_MAX_VERTICES:
        raise GraphTooLargeError(f"lovasz_theta supports <= {THETA_MAX_VERTICES} vertices, got {n}")
    if not math.isfinite(accuracy):
        raise ValueError(f"accuracy must be finite, got {accuracy!r}")
    if accuracy < 1e-7:
        raise ValueError("accuracy below 1e-7 is not supported")

    components = _connected_components(graph)
    if len(components) > 1:
        result = _theta_from_components(graph, components, accuracy)
    else:
        _, result = _lovasz_theta_connected(graph, accuracy)
    if result.duality_gap > accuracy:
        raise ThetaNonConvergenceError(
            f"gap {result.duality_gap:.3e} above accuracy {accuracy:.1e} "
            f"after {result.iterations} interior-point iterations "
            f"(stopped: {result.stop.replace('_', ' ')})",
            best_primal=result.primal_value,
            best_dual=result.dual_value,
        )
    return result


def _theta_from_components(
    graph: ExclusivityGraph, components: list[list[int]], accuracy: float
) -> ThetaResult:
    """Theta per component, summed; the stop reason is the least favourable
    of the components'.

    The components' certificates X_k (trace 1, value p_k = sw_k^T X_k sw_k)
    merge in one step: with c_k = X_k sw_k, c their concatenation and
    P = sum_k p_k,

        X = (blockdiag_k(p_k X_k - c_k c_k^T) + c c^T) / P.

    Its diagonal blocks are p_k X_k / P, so edge entries stay exactly zero,
    and its cross blocks c_k c_l^T / P, which no constraint touches.  Each
    p_k X_k - c_k c_k^T is p_k times the Schur complement of p_k in the PSD
    matrix [X_k, c_k; c_k^T, p_k] (and zero when p_k = 0, which forces
    c_k = 0), so it is PSD, and adding c c^T keeps X PSD.  Then
    tr X = sum_k p_k / P = 1 and sw^T X sw = (sum_k (p_k^2 - p_k^2) + P^2) / P
    = P: theta is additive over components because of the cross blocks.
    When P = 0 every weight is zero and X = I/n.  When every component
    closes, theta is alpha_w exactly and the bounds are float(alpha_w), not
    the float sum of the components' values, which may round an ulp off it.
    """
    index = {vid: k for k, vid in enumerate(graph.vertex_ids())}
    X = np.zeros((graph.n, graph.n))
    c = np.zeros(graph.n)
    primal = dual = 0.0
    alpha: Weight = 0
    iterations = 0
    stops = []
    for component in components:
        keep = set(component)
        sub = ExclusivityGraph(
            vertices=tuple(v for v in graph.vertices if v.id in keep),
            edges=tuple(e for e in graph.edges if e[0] in keep),
        )
        alpha_k, part = _lovasz_theta_connected(sub, accuracy / len(components))
        alpha += alpha_k
        pos = [index[vid] for vid in sub.vertex_ids()]
        c_k = part.primal_certificate @ np.sqrt([float(v.weight) for v in sub.vertices])
        X[np.ix_(pos, pos)] = part.primal_value * part.primal_certificate - np.outer(c_k, c_k)
        c[pos] = c_k
        primal += part.primal_value
        dual += part.dual_value
        iterations += part.iterations
        stops.append(part.stop)
    X = (X + np.outer(c, c)) / primal if primal > 0.0 else np.eye(graph.n) / graph.n
    stop = max(stops, key=THETA_STOPS.index)
    if stop == "clique_cover":
        # every component closed at float(alpha_k), whose float sum may sit
        # an ulp off float(alpha_w); theta is alpha_w exactly
        primal = dual = float(alpha)
    return ThetaResult(
        value=0.5 * (primal + dual),
        primal_value=primal,
        dual_value=dual,
        duality_gap=dual - primal,
        primal_certificate=X,
        iterations=iterations,
        stop=stop,
    )


class _EdgeOperators:
    """The linear maps of the theta SDP on an n-vertex graph with edges
    (I, J), I < J: A_0 = I and A_e = E_ij + E_ji for e = (i, j).

    Entries are read and written at flat row-major positions (i*n + j),
    computed once per solve; they are the same float operations, in the same
    order, as 2-D fancy indexing, without its index grids on every call.
    """

    def __init__(self, n: int, I: np.ndarray, J: np.ndarray):
        self.n = n
        self.diag = np.arange(n) * (n + 1)
        self.ij, self.ji = I * n + J, J * n + I
        # the Schur block's gathers, row e = (i, j) by column f = (k, l)
        self.ik, self.il = I[:, None] * n + I, I[:, None] * n + J
        self.jk, self.jl = J[:, None] * n + I, J[:, None] * n + J

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """sum_k y_k A_k."""
        D = np.zeros(self.n * self.n)
        D[self.diag] = y[0]
        D[self.ij] = D[self.ji] = y[1:]
        return D.reshape(self.n, self.n)

    def constraints(self, Y: np.ndarray) -> np.ndarray:
        """<A_k, Y> for every k: the trace, then Y_ij + Y_ji per edge."""
        flat = Y.reshape(-1)
        return np.concatenate(([np.trace(Y)], flat[self.ij] + flat[self.ji]))

    def schur(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """The HKM Schur complement M_kl = tr(A_k X A_l Z); for edges e =
        (i, j) and f = (k, l) it is X_jk Z_il + X_jl Z_ik + X_ik Z_jl + X_il Z_jk."""
        x, z = X.reshape(-1), Z.reshape(-1)
        xz = (X @ Z).reshape(-1)
        M = np.empty((1 + len(self.ij), 1 + len(self.ij)))
        M[0, 0] = np.sum(X * Z)
        M[0, 1:] = M[1:, 0] = xz[self.ij] + xz[self.ji]
        M[1:, 1:] = (
            x[self.jk] * z[self.il] + x[self.jl] * z[self.ik]
            + x[self.ik] * z[self.jl] + x[self.il] * z[self.jk]
        )
        return M


def _lovasz_theta_connected(
    graph: ExclusivityGraph, accuracy: float
) -> tuple[Weight, ThetaResult]:
    """alpha_w, exact, and theta of a connected graph."""
    n = graph.n
    ids = graph.vertex_ids()
    index = {vid: k for k, vid in enumerate(ids)}
    w = np.array([float(v.weight) for v in graph.vertices])
    if n == 1:  # an isolated vertex is a clique: theta = w exactly
        value = float(w[0])
        return graph.vertices[0].weight, ThetaResult(
            value, value, value, 0.0, np.ones((1, 1)), 0, "clique_cover"
        )
    sw = np.sqrt(w)

    # the independent-set indicator is an exact rank-one feasible point with
    # value alpha_w, a floor for the primal bound; when a clique partition
    # anchored on it, or a fractional clique cover, weighs no more, the
    # sandwich alpha_w <= theta_w <= cover is closed
    alpha, alpha_witness = independence_number(graph)
    u = np.where(np.isin(ids, alpha_witness), sw, 0.0)
    norm_sq = float(u @ u)
    best_X = np.outer(u, u) / norm_sq if norm_sq > 0 else np.eye(n) / n
    witness = sum(1 << index[vid] for vid in alpha_witness)
    weights, adj = _bitmasks(graph)
    if (
        _anchored_clique_partition(weights, adj, witness, THETA_PARTITION_MAX_NODES) is not None
        or _fractional_clique_cover(weights, adj, witness) is not None
    ):
        # every bound is float(alpha), not sw @ best_X @ sw, which may round
        # one ulp above it
        value = float(alpha)
        return alpha, ThetaResult(value, value, value, 0.0, best_X, 0, "clique_cover")

    Jw = np.outer(sw, sw)
    # edges are unique with i < j, so each scattered entry is hit once
    I, J = np.array([(index[i], index[j]) for i, j in graph.edges]).T
    ops = _EdgeOperators(n, I, J)
    scale = max(1.0, float(np.sum(w)))
    b = np.eye(1, 1 + len(I))[0]  # <A_k, X> = b_k: tr X = 1, X_ij + X_ji = 0

    def checked_dual(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """y with y_0 raised until S(y) = adjoint(y) - Jw passes Cholesky,
        and that factor; y_0 is then a certified upper bound on theta."""
        raised = y.copy()
        for k in range(64):  # the last raise exceeds sum(w) >= -lambda_min(S(y))
            try:
                return raised, np.linalg.cholesky(ops.adjoint(raised) - Jw)
            except np.linalg.LinAlgError:
                raised[0] = y[0] + 1e-15 * scale * 2.0**k
        raise np.linalg.LinAlgError("no dual shift passed Cholesky")

    def certified_primal(X: np.ndarray) -> tuple[float, np.ndarray]:
        """X with its edge entries zeroed, shifted to PSD, trace 1."""
        X = X.copy()
        flat = X.reshape(-1)
        flat[ops.ij] = flat[ops.ji] = 0.0
        lam_min = float(np.linalg.eigvalsh(X)[0])
        if lam_min < 0.0:
            flat[ops.diag] -= lam_min
        X /= np.trace(X)
        return float(sw @ X @ sw), X

    def lifted_cholesky(M: np.ndarray) -> np.ndarray:
        """Cholesky factor of M, lifting its diagonal by a relative 1e-14
        where roundoff makes a degenerate optimum's singular M indefinite."""
        try:
            return np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            return np.linalg.cholesky(M + np.diag(1e-14 * M.diagonal()))

    def step_length(L_inv: np.ndarray, D: np.ndarray) -> float:
        """gamma of the largest t keeping L L^T + t D positive definite, at
        most 1: the boundary is t = -1 / lambda_min(L^-1 D L^-T)."""
        lam_min = float(np.linalg.eigvalsh(L_inv @ D @ L_inv.T)[0])
        return 1.0 if lam_min >= -gamma else -gamma / lam_min

    # exactly feasible starts: X = I/n, and S(y) = (sum(w) + 1) I - Jw > 0
    X = np.eye(n) / n
    y = np.zeros(1 + len(I))
    y[0] = float(np.linalg.eigvalsh(Jw)[-1]) + 1.0
    gamma = 0.95

    primal = float(sw @ best_X @ sw)
    dual = math.inf

    iterations = 0
    for iterations in range(THETA_MAX_ITERATIONS + 1):
        y, LS = checked_dual(y)
        dual = min(dual, float(y[0]))
        candidate, X_certified = certified_primal(X)
        if candidate > primal:
            primal, best_X = candidate, X_certified
        if dual - primal <= accuracy or iterations == THETA_MAX_ITERATIONS:
            stop = "gap" if dual - primal <= accuracy else "iteration_cap"
            break
        LS_inv = np.linalg.inv(LS)
        Z = LS_inv.T @ LS_inv
        S = ops.adjoint(y) - Jw
        mu = float(np.sum(X * S)) / n
        # one Cholesky factor of the Schur complement serves both solves below
        M = ops.schur(X, Z)
        try:
            LX, LM = np.linalg.cholesky(X), lifted_cholesky(M)
        except np.linalg.LinAlgError:
            stop = "lost_definiteness"  # the best bounds so far stand
            break
        LX_inv, LM_inv = np.linalg.inv(LX), np.linalg.inv(LM)

        def direction(RZ: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
            """dX = (R - X dS) Z, symmetrized, solves dX S + X dS = R; the
            rows A(dX) = b - A(X) also undo the primal drift of roundoff."""
            dy = LM_inv.T @ (LM_inv @ (ops.constraints(RZ + X) - b))
            dS = ops.adjoint(dy)
            dX = RZ - X @ dS @ Z
            dX = 0.5 * (dX + dX.T)
            return dy, dS, dX, step_length(LX_inv, dX), step_length(LS_inv, dS)

        # Mehrotra: the affine predictor (R = -XS), then the corrector that
        # centres by sigma * mu and cancels the second-order term dX dS
        _, dS, dX, tp, td = direction(-X)
        mu_aff = float(np.sum((X + tp * dX) * (S + td * dS))) / n
        sigma = min(1.0, mu_aff / mu) ** 3
        G = dX @ dS @ Z
        dy, _, dX, tp, td = direction(sigma * mu * Z - X - G)
        X = X + tp * dX
        y = y + td * dy
        # SDPT3's rule: the steps go closer to the boundary as they lengthen
        gamma = max(0.95, 0.9 + 0.09 * min(tp, td))

    return alpha, ThetaResult(
        value=0.5 * (primal + dual),
        primal_value=primal,
        dual_value=dual,
        duality_gap=dual - primal,
        primal_certificate=best_X,
        iterations=iterations,
        stop=stop,
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
    if graph.n > ALPHA_MAX_VERTICES:
        raise GraphTooLargeError(f"find_odd_holes supports <= {ALPHA_MAX_VERTICES} vertices")
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

    Vectors are exact ``quantum.StateVector`` instances; only their
    ``norm_sq``/``inner``/``inner_is_zero``/``born`` interface is used here.
    """

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
    graph: ExclusivityGraph, rep: OrthonormalRepresentation
) -> OrthonormalityReport:
    """Check unit norms and edge orthogonality of a representation.

    Both checks are exact; each violation carries its float residual.  An
    empty report means the representation is valid for the graph.
    """
    missing = [vid for vid in graph.vertex_ids() if vid not in rep.vectors]
    if missing:
        raise ValueError(f"representation misses vectors for vertices {missing}")
    unit = []
    for vid in graph.vertex_ids():
        norm_sq = rep.vectors[vid].norm_sq()
        if norm_sq != 1:
            unit.append((vid, abs(float(norm_sq) - 1.0)))
    edge = []
    for i, j in graph.edges:
        u, v = rep.vectors[i], rep.vectors[j]
        if not u.inner_is_zero(v):
            edge.append(((i, j), abs(u.inner(v))))
    return OrthonormalityReport(unit_violations=tuple(unit), edge_violations=tuple(edge))


def theta_lower_bound(graph: ExclusivityGraph, rep: OrthonormalRepresentation) -> Weight:
    """sum_i w_i |<v_i|psi>|^2 for the representation's handle.

    Any valid representation keeps this below theta of the graph, so the
    returned number is a constructive lower bound, exact for int and
    Fraction weights.
    """
    if rep.handle is None:
        raise ValueError("representation has no handle vector")
    report = verify_orthonormal_representation(graph, rep)
    if not report.valid:
        raise ValueError(f"invalid representation: {report.to_json()}")
    total: Weight = 0
    for v in graph.vertices:
        p = rep.vectors[v.id].born(rep.handle)
        term = v.weight * p
        total = total + term
    return total

