import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exclusivity import graphs, quantum, scenario
from exclusivity.graphs import (
    GraphTooLargeError,
    ThetaNonConvergenceError,
    OrthonormalRepresentation,
    complement,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    find_odd_holes,
    find_vertex_event_mapping,
    independence_number,
    lovasz_theta,
    theta_lower_bound,
    verify_orthonormal_representation,
)
from exclusivity.scenario import ExclusivityGraph, GraphVertex, bell_event

SQRT5 = math.sqrt(5)


def paley13():
    residues = {(k * k) % 13 for k in range(1, 13)}
    return ExclusivityGraph(
        vertices=tuple(GraphVertex(id=i) for i in range(13)),
        edges=tuple((i, j) for i in range(13) for j in range(i + 1, 13) if (j - i) % 13 in residues),
    )


def odd_cycle_theta(n):
    return n * math.cos(math.pi / n) / (1 + math.cos(math.pi / n))


def random_graph(rng, n, p):
    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    )
    return ExclusivityGraph(vertices=tuple(GraphVertex(id=i) for i in range(n)), edges=edges)


class TestIndependenceNumber:
    def test_pentagon(self):
        value, witness = independence_number(cycle_graph(5))
        assert value == 2
        assert len(witness) == 2
        assert not cycle_graph(5).has_edge(*witness)

    def test_chsh_witness(self, chsh_graph):
        value, witness = independence_number(chsh_graph)
        assert value == 3
        events = {str(chsh_graph.event_of(v)) for v in witness}
        assert events == {"(01|00)", "(01|01)", "(01|10)"}

    def test_edgeless(self):
        value, witness = independence_number(edgeless_graph(7))
        assert value == 7 and len(witness) == 7

    def test_complete(self):
        value, witness = independence_number(complete_graph(6))
        assert value == 1 and len(witness) == 1

    def test_weighted(self):
        g = ExclusivityGraph(
            vertices=tuple(
                GraphVertex(id=i, weight=w) for i, w in enumerate((3, 1, 1, 1, 1))
            ),
            edges=cycle_graph(5).edges,
        )
        value, witness = independence_number(g)
        assert value == 4
        assert 0 in witness

    def test_weighted_fraction(self):
        g = ExclusivityGraph(
            vertices=(
                GraphVertex(id=0, weight=Fraction(1, 2)),
                GraphVertex(id=1, weight=Fraction(2, 3)),
            ),
            edges=((0, 1),),
        )
        value, _ = independence_number(g)
        assert value == Fraction(2, 3)

    def test_too_large(self):
        with pytest.raises(GraphTooLargeError):
            independence_number(edgeless_graph(33))

    def test_witness_is_canonical_and_independent(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 12)), rng.uniform(0.2, 0.8))
            value, witness = independence_number(g)
            assert len(witness) == value
            for a in range(len(witness)):
                for b in range(a + 1, len(witness)):
                    assert not g.has_edge(witness[a], witness[b])


class TestLovaszTheta:
    def test_pentagon(self):
        result = lovasz_theta(cycle_graph(5))
        assert abs(result.value - SQRT5) <= 1e-7
        assert result.duality_gap >= 0

    def test_complete(self):
        for n in (2, 4, 6):
            assert abs(lovasz_theta(complete_graph(n)).value - 1.0) <= 1e-7

    def test_edgeless(self):
        assert abs(lovasz_theta(edgeless_graph(5)).value - 5.0) <= 1e-7

    def test_chsh(self, chsh_graph):
        result = lovasz_theta(chsh_graph)
        assert abs(result.value - (2 + math.sqrt(2))) <= 1e-7

    def test_weighted_pentagon(self):
        g = ExclusivityGraph(
            vertices=tuple(GraphVertex(id=i, weight=2) for i in range(5)),
            edges=cycle_graph(5).edges,
        )
        assert abs(lovasz_theta(g).value - 2 * SQRT5) <= 1e-6

    def test_certificate_invariants(self, chsh_graph):
        result = lovasz_theta(chsh_graph)
        X = result.primal_certificate
        assert np.linalg.eigvalsh(X)[0] >= -1e-9
        assert abs(np.trace(X) - 1.0) <= 1e-9
        index = {vid: k for k, vid in enumerate(chsh_graph.vertex_ids())}
        for i, j in chsh_graph.edges:
            assert abs(X[index[i], index[j]]) <= 1e-9
        assert result.primal_value <= result.value <= result.dual_value

    def test_accuracy_validation(self):
        with pytest.raises(ValueError):
            lovasz_theta(cycle_graph(5), accuracy=1e-9)

    @pytest.mark.parametrize("accuracy", [math.inf, math.nan])
    def test_non_finite_accuracy_rejected(self, accuracy):
        # inf used to return theta = 4 with gap 4 for the pentagon, and nan
        # slipped past the lower bound
        with pytest.raises(ValueError, match="finite"):
            lovasz_theta(cycle_graph(5), accuracy=accuracy)

    def test_too_large(self):
        with pytest.raises(GraphTooLargeError):
            lovasz_theta(edgeless_graph(17))

    def test_chsh_value_against_circulant_certificates(self, chsh_graph):
        # independent bracket: the CHSH event graph is the circulant
        # Ci8(1,4); on it an explicit feasible primal matrix and an explicit
        # dual matrix both hit 2 + sqrt(2) exactly.
        n = 8
        circulant = ExclusivityGraph(
            vertices=tuple(GraphVertex(id=i) for i in range(n)),
            edges=tuple((i, (i + 1) % n) for i in range(n))
            + tuple((i, i + 4) for i in range(4)),
        )
        assert find_vertex_event_mapping(circulant, chsh_graph) is not None

        target = 2 + math.sqrt(2)
        coeff = {0: 1 / 8, 2: 1 / 16, 6: 1 / 16, 3: 1 / (8 * math.sqrt(2)), 5: 1 / (8 * math.sqrt(2))}
        X = np.array([[coeff.get((i - j) % n, 0.0) for j in range(n)] for i in range(n)])
        assert abs(np.trace(X) - 1.0) < 1e-12
        for i, j in circulant.edges:
            assert X[i, j] == 0.0
        assert np.linalg.eigvalsh(X)[0] >= -1e-12
        assert abs(float(np.sum(X)) - target) < 1e-12  # theta >= 2 + sqrt(2)

        A = np.ones((n, n))
        for i in range(n):
            A[i, (i + 1) % n] = A[(i + 1) % n, i] = 1 - 2.0
            A[i, (i + 4) % n] = 1 - (2 - math.sqrt(2))
        assert abs(float(np.linalg.eigvalsh(A)[-1]) - target) < 1e-12  # theta <= 2 + sqrt(2)

    def test_non_convergence_reports_best_bounds(self, monkeypatch):
        monkeypatch.setattr(graphs, "THETA_MAX_ITERATIONS", 2)
        with pytest.raises(ThetaNonConvergenceError) as err:
            lovasz_theta(cycle_graph(5))
        assert err.value.best_primal <= err.value.best_dual
        assert err.value.best_primal >= 2.0 - 1e-12  # alpha certificate floor

    def test_edgeless_is_exact_without_newton_steps(self):
        result = lovasz_theta(edgeless_graph(16))
        assert result.value == 16.0
        assert result.duality_gap == 0
        assert result.iterations == 0

    def test_isolated_fraction_weight_adds_to_component(self):
        w = Fraction(2, 7)
        g = ExclusivityGraph(
            vertices=tuple(GraphVertex(id=i) for i in range(5)) + (GraphVertex(id=5, weight=w),),
            edges=cycle_graph(5).edges,
        )
        assert abs(lovasz_theta(g).value - (SQRT5 + float(w))) <= 1e-7

    def test_k16_and_paley13(self):
        assert abs(lovasz_theta(complete_graph(16)).value - 1.0) <= 1e-6
        assert abs(lovasz_theta(paley13()).value - math.sqrt(13)) <= 1e-6

    def test_zero_weight_vertex_has_trace_one_certificate(self):
        result = lovasz_theta(ExclusivityGraph(vertices=(GraphVertex(id=0, weight=0),), edges=()))
        assert result.value == 0.0
        assert np.trace(result.primal_certificate) == 1.0

    def test_alpha_below_theta_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(3, 11)), rng.uniform(0.2, 0.7))
            alpha, _ = independence_number(g)
            result = lovasz_theta(g)
            assert alpha <= result.value + result.duality_gap + 1e-9


class TestThetaInteriorPoint:
    @pytest.mark.parametrize("name", ["K16", "paley13", "C5+C7", "bell222", "co-bell222"])
    def test_few_iterations(self, name):
        bell = scenario.build_exclusivity_graph(scenario.bell_222())
        c5_c7 = ExclusivityGraph(
            vertices=tuple(GraphVertex(id=i) for i in range(12)),
            edges=cycle_graph(5).edges + tuple((5 + i, 5 + (i + 1) % 7) for i in range(7)),
        )
        graph = {
            "K16": complete_graph(16), "paley13": paley13(), "C5+C7": c5_c7,
            "bell222": bell, "co-bell222": complement(bell),
        }[name]
        assert lovasz_theta(graph).iterations <= 30

    def test_one_iteration_raises_above_the_alpha_floor(self, monkeypatch):
        monkeypatch.setattr(graphs, "THETA_MAX_ITERATIONS", 1)
        with pytest.raises(ThetaNonConvergenceError) as err:
            lovasz_theta(cycle_graph(5))
        assert 2.0 - 1e-12 <= err.value.best_primal <= err.value.best_dual

    def test_connected_graph_with_zero_and_fraction_weights(self):
        # without the weight-0 vertex the pentagon is the path 1-2-3-4,
        # a perfect graph, so theta equals alpha = w_2 + w_4 = 13/6; the
        # cliques {2, 1} and {4, 3} anchored on that witness close it exactly
        weights = (0, Fraction(1, 2), Fraction(2, 3), 1, Fraction(3, 2))
        g = ExclusivityGraph(
            vertices=tuple(GraphVertex(id=i, weight=w) for i, w in enumerate(weights)),
            edges=cycle_graph(5).edges,
        )
        alpha, _ = independence_number(g)
        assert alpha == Fraction(13, 6)
        result = lovasz_theta(g)
        assert result.stop == "clique_cover" and result.iterations == 0
        assert result.value == result.dual_value == float(alpha)
        assert_feasible_certificate(g, result)

    def test_connected_graph_with_zero_and_fraction_weights_runs_the_method(self):
        # a pentagon of weight 1/2 with a weight-0 pendant: theta is
        # sqrt(5)/2 > alpha = 1, so no clique partition closes it
        g = ExclusivityGraph(
            vertices=tuple(GraphVertex(id=i, weight=Fraction(1, 2)) for i in range(5))
            + (GraphVertex(id=5, weight=0),),
            edges=cycle_graph(5).edges + ((0, 5),),
        )
        assert independence_number(g)[0] == 1
        result = lovasz_theta(g)
        assert result.stop == "gap" and result.iterations > 0
        assert abs(result.value - SQRT5 / 2) <= 1e-7
        X = result.primal_certificate
        assert np.linalg.eigvalsh(X)[0] >= -1e-9 and abs(np.trace(X) - 1.0) <= 1e-12

    @pytest.mark.parametrize("name", ["C5", "C7", "paley13", "chsh", "co-C7"])
    def test_sandwich_brackets_the_closed_form(self, name, chsh_graph):
        graph, closed_form = {
            "C5": (cycle_graph(5), SQRT5),
            "C7": (cycle_graph(7), odd_cycle_theta(7)),
            "paley13": (paley13(), math.sqrt(13)),
            "chsh": (chsh_graph, 2 + math.sqrt(2)),
            "co-C7": (complement(cycle_graph(7)), 7 / odd_cycle_theta(7)),
        }[name]
        result = lovasz_theta(graph)
        assert result.primal_value - 1e-12 <= closed_form <= result.dual_value + 1e-12


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    unit = draw(st.booleans())
    weight = st.one_of(
        st.just(0), st.just(1), st.fractions(min_value=0, max_value=3, max_denominator=7)
    )
    weights = [1] * n if unit else draw(st.lists(weight, min_size=n, max_size=n))
    graph = ExclusivityGraph(
        vertices=tuple(GraphVertex(id=i, weight=w) for i, w in enumerate(weights)),
        edges=tuple(e for e, keep in zip(pairs, present) if keep),
    )
    return graph, unit


class TestThetaCertificates:
    @settings(max_examples=60, deadline=None)
    @given(weighted_graphs())
    def test_certificates_hold(self, case):
        graph, unit = case
        result = lovasz_theta(graph)
        X = result.primal_certificate
        assert np.linalg.eigvalsh(X)[0] >= -1e-9
        assert abs(np.trace(X) - 1.0) <= 1e-9
        for i, j in graph.edges:
            assert X[i, j] == 0.0 and X[j, i] == 0.0
        root = np.sqrt([float(v.weight) for v in graph.vertices])
        assert abs(root @ X @ root - result.primal_value) <= 1e-9 * max(1.0, result.primal_value)
        alpha, _ = independence_number(graph)
        assert float(alpha) <= result.dual_value + 1e-12
        if unit:
            co_dual = lovasz_theta(complement(graph)).dual_value
            assert result.dual_value * co_dual >= graph.n - 1e-9


def disjoint_union(first, second):
    """``second`` relabelled after ``first``'s vertices, weights kept."""
    shift = first.n
    return ExclusivityGraph(
        vertices=first.vertices
        + tuple(GraphVertex(id=v.id + shift, weight=v.weight) for v in second.vertices),
        edges=first.edges + tuple((i + shift, j + shift) for i, j in second.edges),
    )


def assert_feasible_certificate(graph, result):
    X = result.primal_certificate
    assert np.linalg.eigvalsh(X)[0] >= -1e-12
    assert abs(np.trace(X) - 1.0) <= 1e-12
    for i, j in graph.edges:
        assert X[i, j] == 0.0 and X[j, i] == 0.0


def forced_interior_point(graph):
    """theta with the clique-cover exits turned off: every connected
    component of two or more vertices runs the interior-point method."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_anchored_clique_partition", lambda *args: None)
        mp.setattr(graphs, "_fractional_clique_cover", lambda *args: None)
        return lovasz_theta(graph)


def weighted_graph(weights, edges):
    return ExclusivityGraph(
        vertices=tuple(GraphVertex(id=i, weight=w) for i, w in enumerate(weights)), edges=edges
    )


def weighted_cycle(n, weight):
    return ExclusivityGraph(
        vertices=tuple(GraphVertex(id=i, weight=weight) for i in range(n)),
        edges=cycle_graph(n).edges,
    )


class TestThetaBlockMerge:
    """Disconnected graphs merge their components' certificates in one step."""

    @pytest.mark.parametrize("name", ["0*C5+C7", "0*(C5+C7)", "co-K16", "C5+C7"])
    def test_merged_certificate_is_feasible_and_attains_the_primal(self, name):
        graph = {
            "0*C5+C7": disjoint_union(weighted_cycle(5, 0), cycle_graph(7)),
            "0*(C5+C7)": disjoint_union(weighted_cycle(5, 0), weighted_cycle(7, 0)),
            "co-K16": complement(complete_graph(16)),
            "C5+C7": disjoint_union(cycle_graph(5), cycle_graph(7)),
        }[name]
        components = graphs._connected_components(graph)
        assert len(components) > 1
        result = graphs._theta_from_components(graph, components, 1e-7)
        assert_feasible_certificate(graph, result)
        root = np.sqrt([float(v.weight) for v in graph.vertices])
        assert abs(root @ result.primal_certificate @ root - result.primal_value) <= 1e-9


class TestThetaCliqueCover:
    """A clique partition of weight alpha_w closes the sandwich: theta is
    exact, no IPM."""

    # graphs the greedy lowest-id cover leaves open: the path 2-0-1-3, where
    # it takes {0, 1}, {2}, {3} against {0, 2}, {1, 3}; a star whose hub 0
    # must join its heaviest leaf 2, not its lowest 1; and a graph where
    # placing 3 with anchor 0, the first fit, strands 4
    GREEDY_OPEN = {
        "P4": ([1] * 4, ((0, 1), (0, 2), (1, 3)), 2),
        "star": ((3, Fraction(1, 2), 4, Fraction(4, 3)), ((0, 1), (0, 2), (0, 3)), Fraction(35, 6)),
        "backtrack": ([1] * 5, ((0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)), 2),
    }

    @staticmethod
    def assert_partition_weighs_alpha(graph, cliques, alpha):
        weights, adj = graphs._bitmasks(graph)
        covered = 0
        for clique in cliques:
            members = [v for v in range(graph.n) if clique >> v & 1]
            assert all(adj[a] >> b & 1 for a in members for b in members if a != b)
            assert covered & clique == 0
            covered |= clique
        assert all(covered >> v & 1 for v in range(graph.n) if weights[v] > 0)
        assert sum(max(weights[v] for v in range(graph.n) if c >> v & 1) for c in cliques) == alpha

    @staticmethod
    def fraction_weighted_c6():
        # the greedy cover pairs (0,1), (2,3), (4,5); their heavier ends
        # 0, 2, 4 are independent, so the cover weighs alpha exactly
        weights = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 5),
                   Fraction(3, 4), Fraction(1, 7))
        return ExclusivityGraph(
            vertices=tuple(GraphVertex(id=i, weight=w) for i, w in enumerate(weights)),
            edges=cycle_graph(6).edges,
        )

    @pytest.mark.parametrize(
        "name", ["K2", "K5", "K16", "C4", "C6", "C10", "co-C6", "co-C8", "co-K5+C4", "C6-fraction",
                 "bell222", "co-bell222"],
    )
    def test_closing_graphs_are_exact(self, name):
        bell = scenario.build_exclusivity_graph(scenario.bell_222())
        graph = {
            "K2": complete_graph(2), "K5": complete_graph(5), "K16": complete_graph(16),
            "C4": cycle_graph(4), "C6": cycle_graph(6), "C10": cycle_graph(10),
            "co-C6": complement(cycle_graph(6)), "co-C8": complement(cycle_graph(8)),
            "co-K5+C4": disjoint_union(complement(complete_graph(5)), cycle_graph(4)),
            "C6-fraction": self.fraction_weighted_c6(), "bell222": bell, "co-bell222": complement(bell),
        }[name]
        alpha, _ = independence_number(graph)
        result = lovasz_theta(graph)
        assert result.stop == "clique_cover" and result.to_json()["stop"] == "clique_cover"
        assert result.iterations == 0
        assert result.duality_gap == 0.0
        assert result.value == result.primal_value == result.dual_value == float(alpha)
        assert_feasible_certificate(graph, result)
        root = np.sqrt([float(v.weight) for v in graph.vertices])
        assert abs(root @ result.primal_certificate @ root - float(alpha)) <= 1e-12 * float(alpha)

    @pytest.mark.parametrize("name", sorted(GREEDY_OPEN))
    def test_anchored_partition_closes_what_the_greedy_cover_leaves_open(self, name):
        weights, edges, expected = self.GREEDY_OPEN[name]
        graph = weighted_graph(weights, edges)
        alpha, witness = independence_number(graph)
        assert alpha == expected
        assert graphs._clique_cover((1 << graph.n) - 1, *graphs._bitmasks(graph)) > alpha
        cliques = graphs._anchored_clique_partition(
            *graphs._bitmasks(graph), sum(1 << v for v in witness), graphs.THETA_PARTITION_MAX_NODES
        )
        self.assert_partition_weighs_alpha(graph, cliques, alpha)
        result = lovasz_theta(graph)
        assert result.stop == "clique_cover" and result.iterations == 0
        assert result.value == result.primal_value == result.dual_value == float(alpha)
        assert_feasible_certificate(graph, result)
        forced = forced_interior_point(graph)
        assert forced.stop == "gap" and abs(forced.value - result.value) <= 1e-7

    def test_zero_budget_runs_the_interior_point_method(self, monkeypatch):
        weights, edges, _ = self.GREEDY_OPEN["star"]
        graph = weighted_graph(weights, edges)
        closed = lovasz_theta(graph)
        monkeypatch.setattr(graphs, "THETA_PARTITION_MAX_NODES", 0)
        monkeypatch.setattr(graphs, "THETA_COVER_MAX_PIVOTS", 0)
        result = lovasz_theta(graph)
        assert result.stop == "gap" and result.iterations > 0
        assert abs(result.value - closed.value) <= 1e-7

    def test_budget_counts_every_node(self):
        # the backtracking case visits 5 nodes: the root, 2 placed, 3 placed
        # with anchor 0 (where 4 fits nowhere), 3 with anchor 1, and 4 placed
        weights, edges, _ = self.GREEDY_OPEN["backtrack"]
        args = (*graphs._bitmasks(weighted_graph(weights, edges)), 0b11)
        assert graphs._anchored_clique_partition(*args, 4) is None
        assert graphs._anchored_clique_partition(*args, 5) == [0b10001, 0b01110]

    @settings(max_examples=80, deadline=None)
    @given(weighted_graphs())
    def test_anchored_partition_closes_whatever_the_greedy_cover_closes(self, case):
        graph, _ = case
        weights, adj = graphs._bitmasks(graph)
        alpha, witness = independence_number(graph)
        greedy = graphs._clique_cover((1 << graph.n) - 1, weights, adj) == alpha
        cliques = graphs._anchored_clique_partition(
            weights, adj, sum(1 << v for v in witness), graphs.THETA_PARTITION_MAX_NODES
        )
        if cliques is not None:
            self.assert_partition_weighs_alpha(graph, cliques, alpha)
        if greedy:
            assert cliques is not None
            result = lovasz_theta(graph)
            assert result.stop == "clique_cover" and result.duality_gap == 0.0
            assert result.value == float(alpha)
            assert abs(forced_interior_point(graph).value - result.value) <= 1e-7

    def test_closed_components_sum_to_float_alpha(self):
        # float(1) + float(2/3) is 1.6666666666666665, an ulp below 5/3
        graph = weighted_graph((1, Fraction(2, 3)), ())
        result = lovasz_theta(graph)
        assert result.stop == "clique_cover"
        assert result.value == result.primal_value == result.dual_value == float(Fraction(5, 3))
        assert_feasible_certificate(graph, result)

    def test_union_with_a_non_closing_component(self):
        # K3 closes with no iterations; C5, solved after it, needs the
        # interior-point method, so the union does not report a closed sandwich
        graph = disjoint_union(complete_graph(3), cycle_graph(5))
        result = lovasz_theta(graph)
        assert result.stop == "gap"
        # each of the two components is solved to half the accuracy
        _, c5 = graphs._lovasz_theta_connected(cycle_graph(5), 0.5e-7)
        assert result.iterations == c5.iterations > 0
        assert abs(result.value - (SQRT5 + 1.0)) <= 1e-7
        assert 0.0 < result.duality_gap <= 1e-7
        assert_feasible_certificate(graph, result)

    def test_non_closing_graphs_report_the_gap(self):
        for graph in (cycle_graph(5), cycle_graph(7), paley13()):
            result = lovasz_theta(graph)
            assert result.stop == "gap" and result.iterations > 0

    def test_iteration_cap_is_named(self, monkeypatch):
        monkeypatch.setattr(graphs, "THETA_MAX_ITERATIONS", 2)
        with pytest.raises(ThetaNonConvergenceError, match="stopped: iteration cap"):
            lovasz_theta(cycle_graph(5))

    @settings(max_examples=60, deadline=None)
    @given(weighted_graphs())
    def test_early_exit_agrees_with_the_interior_point_method(self, case):
        graph, _ = case
        exit_result = lovasz_theta(graph)
        forced = forced_interior_point(graph)
        assert forced.stop in ("gap", "clique_cover")  # isolated vertices stay closed form
        assert abs(forced.value - exit_result.value) <= 1e-7
        if exit_result.stop == "clique_cover":
            assert exit_result.duality_gap == 0.0


def witness_mask(graph):
    return sum(1 << v for v in independence_number(graph)[1])


class TestThetaFractionalCover:
    """A fractional clique cover of weight alpha_w closes the sandwich where
    no clique partition does."""

    # no clique partition weighs alpha: in the path 0-1-2 the heavy middle
    # vertex fits whole in neither end's clique; in the weighted pentagons
    # vertex 0 must cover both 1 and 4, which are not adjacent; the last
    # graph needs half-integral weights on its triangles {2, 3, 4}, {3, 5, 6}
    NO_PARTITION = {
        "P3": ((1, 2, 1), ((0, 1), (1, 2)), 2),
        "C5": ((2, 1, 1, 1, 1), cycle_graph(5).edges, 3),
        "C5-fraction": (
            (Fraction(4, 3), Fraction(2, 3), Fraction(2, 3), Fraction(2, 3), Fraction(2, 3)),
            cycle_graph(5).edges, 2,
        ),
        "half": (
            (3, 2, 2, 3, 2, 2, 2),
            ((0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 4), (3, 4), (3, 5), (3, 6),
             (4, 5), (5, 6)),
            7,
        ),
    }

    @staticmethod
    def assert_cover_weighs_alpha(graph, cover, alpha):
        q, cliques = cover
        weights, adj = graphs._bitmasks(graph)
        for clique, y in cliques:
            members = [v for v in range(graph.n) if clique >> v & 1]
            assert all(adj[a] >> b & 1 for a in members for b in members if a != b)
            assert isinstance(y, int) and y > 0
        for v in range(graph.n):
            assert sum(y for c, y in cliques if c >> v & 1) >= weights[v] * q
        assert Fraction(sum(y for _, y in cliques), q) == alpha

    @pytest.mark.parametrize("name", sorted(NO_PARTITION))
    def test_fractional_cover_closes_what_no_partition_closes(self, name):
        weights, edges, expected = self.NO_PARTITION[name]
        graph = weighted_graph(weights, edges)
        alpha, _ = independence_number(graph)
        assert alpha == expected
        args = (*graphs._bitmasks(graph), witness_mask(graph))
        assert graphs._anchored_clique_partition(*args, graphs.THETA_PARTITION_MAX_NODES) is None
        self.assert_cover_weighs_alpha(graph, graphs._fractional_clique_cover(*args), alpha)
        result = lovasz_theta(graph)
        assert result.stop == "clique_cover" and result.iterations == 0
        assert result.value == result.primal_value == result.dual_value == float(alpha)
        assert_feasible_certificate(graph, result)
        forced = forced_interior_point(graph)
        assert forced.stop == "gap" and abs(forced.value - result.value) <= 1e-7

    def test_half_integral_cover(self):
        weights, edges, _ = self.NO_PARTITION["half"]
        graph = weighted_graph(weights, edges)
        q, cliques = graphs._fractional_clique_cover(*graphs._bitmasks(graph), witness_mask(graph))
        assert q == 2 and any(y % 2 for _, y in cliques)

    def test_zero_pivots_runs_the_interior_point_method(self, monkeypatch):
        weights, edges, expected = self.NO_PARTITION["C5"]
        graph = weighted_graph(weights, edges)
        monkeypatch.setattr(graphs, "THETA_COVER_MAX_PIVOTS", 0)
        assert graphs._fractional_clique_cover(*graphs._bitmasks(graph), witness_mask(graph)) is None
        result = lovasz_theta(graph)
        assert result.stop == "gap" and result.iterations > 0
        assert abs(result.value - expected) <= 1e-7

    def test_float_weights_that_round_run_the_interior_point_method(self):
        # 2.1 is a binary fraction whose denominator is past what the
        # rounding to a common denominator can hold; 2.0 is exact
        for heavy, stop in ((2.0, "clique_cover"), (2.1, "gap")):
            graph = weighted_graph((heavy, 1.0, 1.0, 1.0, 1.0), cycle_graph(5).edges)
            result = lovasz_theta(graph)
            assert result.stop == stop
            assert abs(result.value - (heavy + 1.0)) <= 1e-7

    @pytest.mark.parametrize("name", ["C5", "C7", "co-C7", "paley13", "chsh"])
    def test_theta_above_alpha_stays_open(self, name, chsh_graph):
        graph = {
            "C5": cycle_graph(5), "C7": cycle_graph(7), "co-C7": complement(cycle_graph(7)),
            "paley13": paley13(), "chsh": chsh_graph,
        }[name]
        assert graphs._fractional_clique_cover(*graphs._bitmasks(graph), witness_mask(graph)) is None

    @settings(max_examples=80, deadline=None)
    @given(weighted_graphs())
    def test_fractional_cover_closes_whatever_the_partition_closes(self, case):
        graph, _ = case
        alpha, _ = independence_number(graph)
        args = (*graphs._bitmasks(graph), witness_mask(graph))
        cover = graphs._fractional_clique_cover(*args)
        if graphs._anchored_clique_partition(*args, graphs.THETA_PARTITION_MAX_NODES) is not None:
            assert cover is not None
        if cover is not None:
            self.assert_cover_weighs_alpha(graph, cover, alpha)
            assert lovasz_theta(graph).stop == "clique_cover"
            assert abs(forced_interior_point(graph).value - float(alpha)) <= 1e-7

    @settings(max_examples=80, deadline=None)
    @given(weighted_graphs())
    def test_maximal_cliques_match_brute_force(self, case):
        graph, _ = case
        _, adj = graphs._bitmasks(graph)
        n = graph.n
        mask = (1 << n) - 1

        def is_clique(c):
            members = [v for v in range(n) if c >> v & 1]
            return all(adj[a] >> b & 1 for a in members for b in members if a != b)

        cliques = [c for c in range(1, mask + 1) if is_clique(c)]
        maximal = {c for c in cliques if not any(c != d and c & d == c for d in cliques)}
        found = graphs._maximal_cliques(mask, adj)
        assert len(found) == len(set(found)) and set(found) == maximal
        assert graphs._maximal_cliques(0, adj) == [0]


class TestComplement:
    def test_pentagon_self_complementary(self):
        c5 = cycle_graph(5)
        assert find_vertex_event_mapping(complement(c5), c5) is not None

    def test_complete_to_edgeless(self):
        assert len(complement(complete_graph(5)).edges) == 0

    def test_chsh_complement(self, chsh_graph):
        comp = complement(chsh_graph)
        assert len(comp.edges) == 16
        assert comp.is_regular(4)

    def test_involution(self, chsh_graph):
        assert complement(complement(chsh_graph)) == chsh_graph


class TestOddHoles:
    def test_c5(self):
        assert find_odd_holes(cycle_graph(5), 5) == [(0, 1, 2, 3, 4)]

    def test_c4_empty(self):
        assert find_odd_holes(cycle_graph(4), 5) == []

    def test_hardy_pentagon_in_222(self, graph222, pentagon_graph):
        holes = find_odd_holes(graph222, 5)
        wanted = sorted(pentagon_graph.vertex_ids())
        assert any(sorted(h) == wanted for h in holes)

    def test_perfect_graphs_have_no_odd_holes(self):
        path = ExclusivityGraph(
            vertices=tuple(GraphVertex(id=i) for i in range(7)),
            edges=tuple((i, i + 1) for i in range(6)),
        )
        bipartite = ExclusivityGraph(
            vertices=tuple(GraphVertex(id=i) for i in range(6)),
            edges=tuple((i, 3 + j) for i in range(3) for j in range(3)),
        )
        for g in (path, bipartite, complete_graph(6)):
            for length in (5, 7):
                assert find_odd_holes(g, length) == []

    def test_length_validation(self):
        with pytest.raises(ValueError):
            find_odd_holes(cycle_graph(5), 4)
        with pytest.raises(ValueError):
            find_odd_holes(cycle_graph(5), 3)

    def test_c7(self):
        assert find_odd_holes(cycle_graph(7), 7) == [(0, 1, 2, 3, 4, 5, 6)]
        assert find_odd_holes(cycle_graph(7), 5) == []


class TestOrthonormalRepresentation:
    def test_construction_is_valid_and_exact(self, construction):
        report = verify_orthonormal_representation(
            construction.graph, construction.representation()
        )
        assert report.valid

    def test_swapped_labels_violate(self, construction):
        vectors = dict(construction.vertex_vectors)
        vectors[2], vectors[3] = vectors[3], vectors[2]
        rep = OrthonormalRepresentation(vectors=vectors)
        report = verify_orthonormal_representation(construction.graph, rep)
        assert not report.valid
        violations = dict(report.edge_violations)
        assert (1, 2) in violations
        assert abs(violations[(1, 2)] - 1 / math.sqrt(6)) < 1e-12

    def test_standard_basis_on_edgeless(self):
        vectors = {
            i: quantum.StateVector.exact([1 if k == i else 0 for k in range(3)], 1)
            for i in range(3)
        }
        rep = OrthonormalRepresentation(vectors=vectors)
        assert verify_orthonormal_representation(edgeless_graph(3), rep).valid

    def test_missing_vector(self, construction):
        vectors = dict(construction.vertex_vectors)
        del vectors[5]
        rep = OrthonormalRepresentation(vectors=vectors)
        with pytest.raises(ValueError):
            verify_orthonormal_representation(construction.graph, rep)

    def test_non_unit_float_vector_reported(self):
        vectors = {0: quantum.StateVector.from_amplitudes([0.9, 0.1])}
        rep = OrthonormalRepresentation(vectors=vectors)
        report = verify_orthonormal_representation(edgeless_graph(1), rep)
        assert not report.valid


def umbrella_representation():
    """Real Lovasz umbrella for the pentagon: exact optimum sqrt(5)."""
    cos_sq = 1 / SQRT5
    vectors = {}
    for k in range(5):
        phi = 4 * math.pi * k / 5
        sin_theta = math.sqrt(1 - cos_sq)
        vectors[k] = quantum.StateVector.from_amplitudes(
            [
                sin_theta * math.cos(phi),
                sin_theta * math.sin(phi),
                math.sqrt(cos_sq),
            ]
        )
    handle = quantum.StateVector.from_amplitudes([0.0, 0.0, 1.0])
    return OrthonormalRepresentation(vectors=vectors, handle=handle)


class TestThetaLowerBound:
    def test_construction_reaches_19_over_6(self, construction):
        value = theta_lower_bound(construction.graph, construction.representation())
        assert value == Fraction(19, 6)

    def test_orthogonal_handle_gives_zero(self, construction):
        rep = OrthonormalRepresentation(
            vectors=construction.vertex_vectors,
            handle=quantum.StateVector.exact([0, 0, 1, -2], 5),
        )
        # handle not orthogonal to all: use a vector orthogonal to all 8?
        # none exists here, so check the trivial case on an edgeless graph
        basis = {0: quantum.StateVector.exact([1, 0], 1)}
        rep0 = OrthonormalRepresentation(
            vectors=basis, handle=quantum.StateVector.exact([0, 1], 1)
        )
        assert theta_lower_bound(edgeless_graph(1), rep0) == 0

    def test_handle_equal_to_vector(self):
        basis = {
            0: quantum.StateVector.exact([1, 0], 1),
            1: quantum.StateVector.exact([1, 1], 2),
        }
        rep = OrthonormalRepresentation(
            vectors=basis, handle=quantum.StateVector.exact([1, 0], 1)
        )
        assert theta_lower_bound(edgeless_graph(2), rep) >= 1

    def test_umbrella_hits_theta_of_pentagon(self):
        rep = umbrella_representation()
        value = theta_lower_bound(cycle_graph(5), rep)
        assert abs(value - SQRT5) < 1e-12
        report = verify_orthonormal_representation(cycle_graph(5), rep)
        assert report.valid

    def test_no_handle_error(self, construction):
        rep = OrthonormalRepresentation(vectors=construction.vertex_vectors)
        with pytest.raises(ValueError):
            theta_lower_bound(construction.graph, rep)

    def test_random_valid_reps_stay_below_theta(self):
        # coloring-based representations on random graphs: vertex vector =
        # basis vector of its color class, random handle
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            g = random_graph(rng, n, 0.5)
            adj = g.adjacency()
            colors = {}
            for v in sorted(g.vertex_ids()):
                taken = {colors[u] for u in adj[v] if u in colors}
                colors[v] = min(c for c in range(n) if c not in taken)
            dim = max(colors.values()) + 1
            raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            raw /= np.linalg.norm(raw)
            handle = quantum.StateVector.from_amplitudes(raw)
            vectors = {
                v: quantum.StateVector.from_amplitudes(
                    [1.0 if k == colors[v] else 0.0 for k in range(dim)]
                )
                for v in g.vertex_ids()
            }
            rep = OrthonormalRepresentation(vectors=vectors, handle=handle)
            bound = theta_lower_bound(g, rep)
            theta = lovasz_theta(g)
            assert bound <= theta.value + theta.duality_gap + 1e-7


class TestIsomorphism:
    def test_c5_identity(self):
        c5 = cycle_graph(5)
        assert find_vertex_event_mapping(c5, c5) == {i: i for i in range(5)}

    def test_c5_vs_k5(self):
        assert find_vertex_event_mapping(cycle_graph(5), complete_graph(5)) is None

    def test_different_sizes(self):
        assert find_vertex_event_mapping(cycle_graph(5), cycle_graph(7)) is None

    def test_pins_respected(self, chsh_graph):
        contextual = quantum.contextual_chsh_graph()
        pins = {
            1: chsh_graph.vertex_by_event(bell_event("01|00")).id,
            8: chsh_graph.vertex_by_event(bell_event("01|10")).id,
        }
        mapping = find_vertex_event_mapping(contextual, chsh_graph, pins=pins)
        assert mapping is not None
        assert mapping[1] == pins[1] and mapping[8] == pins[8]
        adj_a = contextual.adjacency()
        adj_b = chsh_graph.adjacency()
        for i, j in contextual.edges:
            assert mapping[j] in adj_b[mapping[i]]
        for i in mapping:
            assert len(adj_a[i]) == len(adj_b[mapping[i]])

    def test_impossible_pin(self):
        c5 = cycle_graph(5)
        path = ExclusivityGraph(
            vertices=tuple(GraphVertex(id=i) for i in range(5)),
            edges=tuple((i, i + 1) for i in range(4)),
        )
        assert find_vertex_event_mapping(c5, path) is None
