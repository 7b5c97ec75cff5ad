import itertools
import json

import pytest

from spincover import (
    CyclicDigraphError,
    DigraphFormatError,
    WeightedDigraph,
    common_source_sum,
    conjugate_by_permutation,
    enumerate_valid,
    from_matrix,
    has_spin,
    has_spin_digraph,
    identity_matrix,
    parse_digraph,
    serialize_digraph,
    to_matrix,
    w3_vanishes_big,
    w3_vanishes_digraph,
    weighted_in_degree,
)
from conftest import DATA, dv



def bits(entries):
    """A weight int from its entries, first entry at bit 0."""
    return sum(e << t for t, e in enumerate(entries))


def test_from_matrix_fixture_edges(tower_2333):
    g = from_matrix(tower_2333)
    assert g.edges == {
        (0, 1): bits([1, 0]),
        (0, 3): bits([1, 1]),
        (3, 1): bits([1, 1, 1]),
        (3, 2): bits([1, 0, 1]),
    }


def test_from_matrix_identity_is_edgeless():
    assert from_matrix(identity_matrix(dv(1, 2, 2))).edges == {}


def test_from_matrix_klein(klein):
    assert from_matrix(klein).edges == {(0, 1): bits([1])}


def test_to_matrix_edgeless():
    g = WeightedDigraph(dv(1, 1), {})
    assert to_matrix(g) == identity_matrix(dv(1, 1))


def test_to_matrix_fixture(tower_2333):
    assert to_matrix(from_matrix(tower_2333)) == tower_2333


def test_roundtrip_everywhere():
    for dims in [(1, 1, 1), (1, 2, 2)]:
        for A in enumerate_valid(dv(*dims)):
            assert to_matrix(from_matrix(A)) == A


def test_weighted_in_degree(tower_2333):
    g = from_matrix(tower_2333)
    assert weighted_in_degree(g, 2) == 2
    assert weighted_in_degree(g, 0) == 0
    with pytest.raises(IndexError):
        weighted_in_degree(g, 4)


def test_in_degree_identity_with_column_dots():
    for A in enumerate_valid(dv(1, 2, 2)):
        g = from_matrix(A)
        for i in range(3):
            assert weighted_in_degree(g, i) == A.k_count((i, i)) - A.omega[i]


def test_common_source_sum(tower_2333):
    g = from_matrix(tower_2333)
    # the only common source of vertices 2 and 3 is vertex 4
    assert common_source_sum(g, 1, 2) == 2
    assert common_source_sum(g, 2, 1) == 2
    assert common_source_sum(g, 0, 1) == 0
    with pytest.raises(ValueError):
        common_source_sum(g, 1, 1)


def test_common_source_identity_with_column_dots():
    for A in enumerate_valid(dv(1, 2, 2)):
        g = from_matrix(A)
        for i, j in itertools.combinations(range(3), 2):
            off = g.weight(i, j).bit_count() + g.weight(j, i).bit_count()
            assert common_source_sum(g, i, j) == A.k_count((i, j)) - off


def test_spin_digraph_fixture(tower_2333):
    report = has_spin_digraph(from_matrix(tower_2333))
    assert not report.spin
    assert report.failed_condition == "i"


def test_spin_digraph_edgeless_cases():
    assert has_spin_digraph(WeightedDigraph(dv(3, 7), {})).spin
    assert has_spin_digraph(WeightedDigraph(dv(1, 1), {})).spin
    assert not has_spin_digraph(WeightedDigraph(dv(2, 2), {})).spin


def test_spin_digraph_matches_matrix_criterion():
    for dims in [(1, 1, 1), (1, 2, 2), (2, 3)]:
        for A in enumerate_valid(dv(*dims)):
            assert has_spin_digraph(from_matrix(A)).spin == has_spin(A).spin


def test_interval_with_even_simplices_never_spin():
    for A in enumerate_valid(dv(1, 2, 2)):
        assert not has_spin_digraph(from_matrix(A)).spin


def test_w3_digraph_criterion(tower_2333):
    assert w3_vanishes_digraph(WeightedDigraph(dv(3, 3), {}))
    with pytest.raises(ValueError):
        w3_vanishes_digraph(from_matrix(tower_2333))
    for A in enumerate_valid(dv(3, 3)):
        assert w3_vanishes_digraph(from_matrix(A)) == w3_vanishes_big(A)


def test_constructor_validation():
    with pytest.raises(ValueError):
        WeightedDigraph(dv(1, 1), {(0, 2): bits([1])})
    with pytest.raises(ValueError):
        WeightedDigraph(dv(1, 1), {(0, 0): bits([1])})
    with pytest.raises(ValueError):
        WeightedDigraph(dv(1, 2), {(0, 1): bits([1, 1])})
    with pytest.raises(ValueError):
        WeightedDigraph(dv(1, 1), {(0, 1): -1})
    with pytest.raises(CyclicDigraphError):
        WeightedDigraph(dv(1, 1), {(0, 1): bits([1]), (1, 0): bits([1])})


def test_zero_weight_edges_are_normalized_away():
    g = WeightedDigraph(dv(1, 1), {(0, 1): 0})
    assert g.edges == {}
    assert g == WeightedDigraph(dv(1, 1), {})


def test_weight_of_absent_edge_is_zero_vector(tower_2333):
    g = from_matrix(tower_2333)
    assert g.weight(1, 0) == 0
    # adjacency disregards direction; it feeds the non-neighbor condition
    assert g.adjacent(0, 1) and g.adjacent(1, 0)
    assert not g.adjacent(1, 2)
    assert g.in_neighbors(1) == [0, 3]


def test_relabeling_permutes_edges():
    sigma = (2, 0, 1)
    for A in enumerate_valid(dv(1, 1, 3)):
        g = from_matrix(A)
        h = from_matrix(conjugate_by_permutation(A, sigma))
        assert h.edges == {
            (sigma[i], sigma[j]): w for (i, j), w in g.edges.items()
        }


def test_parse_fixture_json(tower_2333):
    text = (DATA / "tower_2333.json").read_text(encoding="utf-8")
    g = parse_digraph(text)
    assert g == from_matrix(tower_2333)
    assert serialize_digraph(g) == text


def test_serialize_parse_roundtrip():
    for A in enumerate_valid(dv(1, 2, 2)):
        g = from_matrix(A)
        assert parse_digraph(serialize_digraph(g)) == g


def test_parse_rejects_malformed_documents():
    good = {"omega": [1, 1], "edges": [{"from": 1, "to": 2, "w": "1"}]}

    def broken(**changes):
        doc = json.loads(json.dumps(good))
        doc.update(changes)
        return json.dumps(doc)

    with pytest.raises(DigraphFormatError):
        parse_digraph("not json")
    with pytest.raises(DigraphFormatError):
        parse_digraph(json.dumps([1, 2]))
    with pytest.raises(DigraphFormatError):
        parse_digraph(broken(extra=1))
    with pytest.raises(DigraphFormatError):
        parse_digraph(json.dumps({"edges": []}))
    with pytest.raises(DigraphFormatError):
        parse_digraph(broken(omega=[0, 1]))
    with pytest.raises(DigraphFormatError):
        parse_digraph(broken(edges=[{"from": 1, "to": 2, "w": "1", "x": 0}]))
    with pytest.raises(DigraphFormatError):
        parse_digraph(broken(edges=[{"from": 1, "to": 2}]))
    with pytest.raises(DigraphFormatError):
        parse_digraph(broken(edges=[{"from": 3, "to": 2, "w": "1"}]))
    with pytest.raises(DigraphFormatError):
        parse_digraph(broken(edges=[{"from": 1, "to": 1, "w": "1"}]))
    with pytest.raises(DigraphFormatError):
        parse_digraph(broken(edges=[{"from": 1, "to": 2, "w": "11"}]))
    with pytest.raises(DigraphFormatError):
        parse_digraph(
            broken(edges=[{"from": 1, "to": 2, "w": "1"}, {"from": 1, "to": 2, "w": "1"}])
        )
    with pytest.raises(CyclicDigraphError):
        parse_digraph(
            broken(edges=[{"from": 1, "to": 2, "w": "1"}, {"from": 2, "to": 1, "w": "1"}])
        )


def test_parse_drops_zero_weight_edges():
    doc = {"omega": [1, 1], "edges": [{"from": 1, "to": 2, "w": "0"}]}
    assert parse_digraph(json.dumps(doc)).edges == {}
