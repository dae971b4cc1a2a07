import math
from fractions import Fraction

import numpy as np
import pytest

from exclusivity import quantum
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

    def test_non_convergence_reports_best_bounds(self):
        with pytest.raises(ThetaNonConvergenceError) as err:
            lovasz_theta(cycle_graph(5), max_newton_iterations=2)
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
        residues = {(k * k) % 13 for k in range(1, 13)}
        paley = ExclusivityGraph(
            vertices=tuple(GraphVertex(id=i) for i in range(13)),
            edges=tuple((i, j) for i in range(13) for j in range(i + 1, 13) if (j - i) % 13 in residues),
        )
        assert abs(lovasz_theta(paley).value - math.sqrt(13)) <= 1e-6

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
        rep = OrthonormalRepresentation(dimension=4, vectors=vectors)
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
        rep = OrthonormalRepresentation(dimension=3, vectors=vectors)
        assert verify_orthonormal_representation(edgeless_graph(3), rep).valid

    def test_missing_vector(self, construction):
        vectors = dict(construction.vertex_vectors)
        del vectors[5]
        rep = OrthonormalRepresentation(dimension=4, vectors=vectors)
        with pytest.raises(ValueError):
            verify_orthonormal_representation(construction.graph, rep)

    def test_non_unit_float_vector_reported(self):
        vectors = {0: quantum.StateVector.from_amplitudes([0.9, 0.1])}
        rep = OrthonormalRepresentation(dimension=2, vectors=vectors)
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
    return OrthonormalRepresentation(dimension=3, vectors=vectors, handle=handle)


class TestThetaLowerBound:
    def test_construction_reaches_19_over_6(self, construction):
        value = theta_lower_bound(construction.graph, construction.representation())
        assert value == Fraction(19, 6)

    def test_orthogonal_handle_gives_zero(self, construction):
        rep = OrthonormalRepresentation(
            dimension=4,
            vectors=construction.vertex_vectors,
            handle=quantum.StateVector.exact([0, 0, 1, -2], 5),
        )
        # handle not orthogonal to all: use a vector orthogonal to all 8?
        # none exists here, so check the trivial case on an edgeless graph
        basis = {0: quantum.StateVector.exact([1, 0], 1)}
        rep0 = OrthonormalRepresentation(
            dimension=2, vectors=basis, handle=quantum.StateVector.exact([0, 1], 1)
        )
        assert theta_lower_bound(edgeless_graph(1), rep0) == 0

    def test_handle_equal_to_vector(self):
        basis = {
            0: quantum.StateVector.exact([1, 0], 1),
            1: quantum.StateVector.exact([1, 1], 2),
        }
        rep = OrthonormalRepresentation(
            dimension=2, vectors=basis, handle=quantum.StateVector.exact([1, 0], 1)
        )
        assert theta_lower_bound(edgeless_graph(2), rep) >= 1

    def test_umbrella_hits_theta_of_pentagon(self):
        rep = umbrella_representation()
        value = theta_lower_bound(cycle_graph(5), rep, validate=False)
        assert abs(value - SQRT5) < 1e-12
        report = verify_orthonormal_representation(cycle_graph(5), rep)
        assert report.valid

    def test_no_handle_error(self, construction):
        rep = OrthonormalRepresentation(dimension=4, vectors=construction.vertex_vectors)
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
            rep = OrthonormalRepresentation(dimension=dim, vectors=vectors, handle=handle)
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
