import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exclusivity import scenario
from exclusivity.scenario import (
    Event,
    ExclusivityGraph,
    GraphVertex,
    Measurement,
    Scenario,
    UnknownVertexError,
    are_exclusive,
    atomic_event,
    bell_222,
    bell_event,
    bell_scenario,
    build_exclusivity_graph,
    enumerate_events,
    hardy_pentagon_events,
    graph_from_json,
    graph_to_json,
    number_from_json,
    scenario_from_json,
    scenario_to_json,
    subgraph,
)
from builders import assert_isomorphism, vertex_by_event
from oracles import bell_event_indices


def single_context_scenario(num_measurements=2, outcomes=2):
    measurements = tuple(
        Measurement(id=f"M{i}", party=i, num_outcomes=outcomes) for i in range(num_measurements)
    )
    return Scenario(
        parties=num_measurements,
        measurements=measurements,
        contexts=(tuple(m.id for m in measurements),),
    )


class TestEvents:
    def test_bell_event_round_trip(self):
        e = bell_event("01|10")
        assert e.assignments == (("A1", 0), ("B0", 1))
        assert e.label() == "(01|10)"
        assert bell_event("(01|10)") == e

    def test_atomic_event_label(self):
        assert atomic_event("A3", 1).label() == "(1|3)"

    def test_assignment_order_is_canonical(self):
        assert Event((("B0", 1), ("A0", 0))) == Event((("A0", 0), ("B0", 1)))

    def test_duplicate_measurement_rejected(self):
        with pytest.raises(ValueError):
            Event((("A0", 0), ("A0", 1)))

    def test_empty_event_rejected(self):
        with pytest.raises(ValueError):
            Event(())


class TestExclusivity:
    def test_shared_alice_different_outcome(self):
        assert are_exclusive(bell_event("00|00"), bell_event("10|01"))

    def test_same_event_not_exclusive(self):
        e = bell_event("00|00")
        assert not are_exclusive(e, e)

    def test_shared_bob_same_outcome_not_exclusive(self):
        # Alice measurements differ, Bob shared with equal outcome
        assert not are_exclusive(bell_event("01|00"), bell_event("01|10"))

    events = st.dictionaries(
        st.sampled_from([f"M{i}" for i in range(5)]),
        st.integers(min_value=0, max_value=3),
        min_size=1,
        max_size=5,
    ).map(lambda d: Event(tuple(d.items())))

    @given(events, events)
    def test_symmetric(self, e1, e2):
        assert are_exclusive(e1, e2) == are_exclusive(e2, e1)

    @given(events)
    def test_irreflexive(self, e):
        assert not are_exclusive(e, e)


class TestEnumeration:
    def test_222_yields_16_events(self, bell222):
        assert len(enumerate_events(bell222)) == 16

    def test_single_context_yields_4(self):
        events = enumerate_events(single_context_scenario())
        assert len(events) == 4

    def test_222_single_context_yields_4(self):
        s = bell_222()
        restricted = Scenario(
            parties=s.parties, measurements=s.measurements, contexts=(("A0", "B0"),)
        )
        assert len(enumerate_events(restricted)) == 4

    def test_canonical_order(self, bell222):
        events = enumerate_events(bell222)
        assert events[0] == bell_event("00|00")
        assert events[1] == bell_event("01|00")
        assert events[4] == bell_event("00|01")
        assert events[15] == bell_event("11|11")

    def test_222_builder_has_4_contexts(self, bell222):
        assert len(bell222.contexts) == 4


class TestGraphBuild:
    def test_222_counts(self, graph222):
        assert graph222.n == 16
        assert len(graph222.edges) == 56

    def test_222_edge_breakdown(self, graph222):
        same_ctx = shared_alice = shared_bob = 0
        for i, j in graph222.edges:
            e1, e2 = graph222.vertex(i).event, graph222.vertex(j).event
            if e1.measurement_ids == e2.measurement_ids:
                same_ctx += 1
            elif e1.measurement_ids[0] == e2.measurement_ids[0]:
                shared_alice += 1
            else:
                shared_bob += 1
        assert (same_ctx, shared_alice, shared_bob) == (24, 16, 16)

    def test_single_context_is_k4(self):
        g = build_exclusivity_graph(single_context_scenario())
        assert g.n == 4 and len(g.edges) == 6

    def test_one_measurement_is_k2(self):
        s = Scenario(
            parties=1,
            measurements=(Measurement(id="M0", party=0),),
            contexts=(("M0",),),
        )
        g = build_exclusivity_graph(s)
        assert g.n == 2 and len(g.edges) == 1

    def test_context_events_form_cliques(self, bell222, graph222):
        for ctx in bell222.contexts:
            ids = [vertex_by_event(graph222, e).id for e in bell222.context_events(ctx)]
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    assert graph222.has_edge(ids[a], ids[b])

    def test_relabeling_preserves_structure(self, graph222):
        # swap the roles of the two parties: B-first labels
        swapped = bell_scenario((2, 2), 2)
        events = [
            Event(tuple((("B" if m[0] == "A" else "A") + m[1:], o) for m, o in e.assignments))
            for e in enumerate_events(swapped)
        ]
        g2 = scenario.graph_from_events(events)
        # (ab|xy) -> (ba|yx)
        mapping = {}
        for v in graph222.vertices:
            a, b, x, y = bell_event_indices(v.event)
            mapping[v.id] = vertex_by_event(g2, bell_event(f"{b}{a}|{y}{x}")).id
        assert_isomorphism(graph222, g2, mapping)


class TestSubgraph:
    def test_pentagon_cycle_order(self, graph222):
        labels = ["10|01", "01|11", "10|11", "01|10", "00|00"]
        ids = {s: vertex_by_event(graph222, bell_event(s)).id for s in labels}
        pent = subgraph(graph222, ids.values())
        assert pent.n == 5 and len(pent.edges) == 5
        cycle = ["10|01", "01|11", "10|11", "01|10", "00|00", "10|01"]
        for a, b in zip(cycle, cycle[1:]):
            assert pent.has_edge(ids[a], ids[b])

    def test_single_vertex(self, graph222):
        g = subgraph(graph222, [3])
        assert g.n == 1 and len(g.edges) == 0

    def test_full_restriction_is_identity(self, graph222):
        g = subgraph(graph222, graph222.vertex_ids())
        assert g == graph222

    def test_unknown_vertex(self, graph222):
        with pytest.raises(UnknownVertexError):
            subgraph(graph222, [999])


class TestChshEventGraph:
    def test_regularity(self, chsh_graph):
        assert chsh_graph.n == 8
        assert len(chsh_graph.edges) == 12
        assert chsh_graph.is_regular(3)

    def test_01_00_adjacency(self, chsh_graph):
        v = vertex_by_event(chsh_graph, bell_event("01|00")).id
        neighbours = {str(chsh_graph.vertex(u).event) for u in chsh_graph.adjacency()[v]}
        assert neighbours == {"(10|00)", "(10|01)", "(10|10)"}

    def test_two_pentagons_cover_vertices(self, chsh_graph):
        from exclusivity.graphs import find_odd_holes

        holes = find_odd_holes(chsh_graph, 5)
        assert len(holes) >= 2
        covered = set()
        for h in holes:
            covered |= set(h)
        assert covered == set(chsh_graph.vertex_ids())

    def test_pentagon_builtin(self, pentagon_graph):
        assert pentagon_graph.n == 5 and len(pentagon_graph.edges) == 5
        assert {v.event for v in pentagon_graph.vertices} == set(hardy_pentagon_events())


class TestValidation:
    def test_duplicate_measurement_ids(self):
        with pytest.raises(ValueError):
            Scenario(
                parties=1,
                measurements=(Measurement("M0", 0), Measurement("M0", 0)),
                contexts=(("M0",),),
            )

    def test_empty_context(self):
        with pytest.raises(ValueError):
            Scenario(parties=1, measurements=(Measurement("M0", 0),), contexts=((),))

    def test_two_per_party_context(self):
        with pytest.raises(ValueError):
            bell_222() and Scenario(
                parties=2,
                measurements=bell_222().measurements,
                contexts=(("A0", "A1"),),
            )

    def test_self_loop(self):
        from exclusivity.scenario import ExclusivityGraph, GraphVertex

        with pytest.raises(ValueError):
            ExclusivityGraph(vertices=(GraphVertex(id=0),), edges=((0, 0),))

    def test_edge_to_missing_vertex(self):
        from exclusivity.scenario import ExclusivityGraph, GraphVertex

        with pytest.raises(UnknownVertexError):
            ExclusivityGraph(vertices=(GraphVertex(id=0),), edges=((0, 1),))

    def test_negative_weight(self):
        from exclusivity.scenario import GraphVertex

        with pytest.raises(ValueError):
            GraphVertex(id=0, weight=-1)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight(self, weight):
        # a NaN weight used to vanish from independence_number's comparisons,
        # an infinite one to break lovasz_theta's eigensolver
        from exclusivity.scenario import GraphVertex

        with pytest.raises(ValueError):
            GraphVertex(id=0, weight=weight)


class TestLookups:
    def test_measurement_by_id(self, bell222):
        for m in bell222.measurements:
            assert bell222.measurement(m.id) is m
        with pytest.raises(KeyError):
            bell222.measurement("Z9")

    def test_vertex_by_id(self, graph222):
        for v in graph222.vertices:
            assert graph222.vertex(v.id) is v
        with pytest.raises(UnknownVertexError):
            graph222.vertex(999)

    def test_lookup_tables_stay_out_of_equality_and_json(self, bell222, graph222):
        from exclusivity.scenario import ExclusivityGraph

        shuffled = ExclusivityGraph(vertices=graph222.vertices[::-1], edges=graph222.edges[::-1])
        assert shuffled == graph222 and hash(shuffled) == hash(graph222)
        assert "_by_id" not in str(graph_to_json(graph222))
        assert "_by_id" not in str(scenario_to_json(bell222))
        assert hash(scenario_from_json(scenario_to_json(bell222))) == hash(bell222)


class TestJson:
    def test_graph_round_trip(self, chsh_graph):
        assert graph_from_json(graph_to_json(chsh_graph)) == chsh_graph

    def test_graph_round_trip_with_fraction_weight(self):
        from fractions import Fraction

        from exclusivity.scenario import ExclusivityGraph, GraphVertex

        g = ExclusivityGraph(
            vertices=(
                GraphVertex(id=0, weight=Fraction(1, 3)),
                GraphVertex(id=1, weight=2),
            ),
            edges=((0, 1),),
        )
        g2 = graph_from_json(graph_to_json(g))
        assert g2 == g
        assert g2.vertex(0).weight == Fraction(1, 3)

    def test_scenario_round_trip(self, bell222):
        assert scenario_from_json(scenario_to_json(bell222)) == bell222

    def test_contextual_scenario_round_trip(self):
        s = scenario.contextual_chsh_scenario()
        assert scenario_from_json(scenario_to_json(s)) == s
        assert len(s.measurements) == 8
        assert len(s.contexts) == 8


NOT_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
# each loader's bad inputs by kind; the huge ones overflow a float, and for
# an integer field any float is wrong, however large
BAD_NUMBERS = {
    "non-finite": NOT_FINITE,
    "huge": st.one_of(
        st.integers(309, 2000).map(lambda k: f"1e{k}"),
        st.integers(309, 2000).map(lambda k: -(10**k)),
    ),
    "boolean": st.booleans(),
    "zero-denominator": st.integers().map(lambda k: f"{k}/0"),
}
BAD_INTEGERS = {
    "non-finite": NOT_FINITE,
    "huge": st.floats(1e16, 1e308) | st.just(1e400),
    "fractional": st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer()),
    "boolean": st.booleans(),
}


def load_with_integer(field: str, value):
    """Load an event or the 2-2-2 scenario with ``value`` in one integer field."""
    if field == "outcome":
        return scenario.event_from_json([["A0", value]])
    data = scenario_to_json(bell_222())
    (data if field == "parties" else data["measurements"][0])[field] = value
    return scenario_from_json(data)


def load_graph_with(field: str, value):
    """Load the edge 0-1 with ``value`` as vertex 0's id or as the edge's far end."""
    edge = ExclusivityGraph(vertices=(GraphVertex(id=0), GraphVertex(id=1)), edges=((0, 1),))
    data = graph_to_json(edge)
    if field == "id":
        data["vertices"][0]["id"] = value
    else:
        data["edges"][0][1] = value
    return graph_from_json(data)


class TestJsonRejects:
    @pytest.mark.parametrize("kind", sorted(BAD_NUMBERS))
    @given(data=st.data())
    def test_number_loader(self, kind, data):
        with pytest.raises(ValueError):
            number_from_json(data.draw(BAD_NUMBERS[kind]))

    @pytest.mark.parametrize("kind", sorted(BAD_INTEGERS))
    @given(data=st.data())
    def test_integer_fields(self, kind, data):
        field = data.draw(st.sampled_from(["outcome", "parties", "party", "num_outcomes"]))
        with pytest.raises(ValueError, match="expected an integer"):
            load_with_integer(field, data.draw(BAD_INTEGERS[kind]))

    @pytest.mark.parametrize("kind", sorted(BAD_INTEGERS))
    @given(data=st.data())
    def test_graph_ids_and_edge_ends(self, kind, data):
        field = data.draw(st.sampled_from(["id", "edge"]))
        with pytest.raises(ValueError, match="expected an integer"):
            load_graph_with(field, data.draw(BAD_INTEGERS[kind]))

    @pytest.mark.parametrize("field", ["id", "edge"])
    @pytest.mark.parametrize("value", [0.9, True, 1e400])
    def test_graph_ids_are_not_truncated(self, field, value):
        # int() took 0.9 as 0 and True as 1, and overflowed on 1e400
        with pytest.raises(ValueError, match="expected an integer"):
            load_graph_with(field, value)

    @pytest.mark.parametrize(
        "change, message",
        [
            # A0 twice in one context used to reach Event's own check only
            # when the graph was built
            ({"contexts": [["A0", "A0"]]}, "repeats a measurement"),
            # the same context twice used to duplicate its events: alpha 2
            # for one dichotomic measurement
            ({"contexts": [["A0"], ["A0"]]}, "listed twice"),
            ({"measurements": [{"id": "A0", "party": 1}]}, "has party 1"),
        ],
    )
    def test_repeated_or_misassigned_measurements(self, change, message):
        data = {"parties": 1, "measurements": [{"id": "A0", "party": 0}], "contexts": [["A0"]]}
        with pytest.raises(ValueError, match=message):
            scenario_from_json({**data, **change})
