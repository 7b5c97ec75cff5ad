import itertools
import json
import random

import pytest

from spincover import (
    CyclicDigraphError,
    DimensionVector,
    DigraphFormatError,
    InvalidMatrixError,
    ReducedMatrix,
    WeightedDigraph,
    common_source_sum,
    conjugate_by_permutation,
    enumerate_valid,
    from_matrix,
    has_spin,
    has_spin_digraph,
    identity_matrix,
    is_valid,
    parse_digraph,
    serialize_digraph,
    to_matrix,
    w3_vanishes_big,
    w3_vanishes_digraph,
    weighted_in_degree,
)
from spincover import digraph, model
from conftest import (
    EVERY_MATRIX_FAMILIES, DATA, dv, perfbench_common, seeded_candidates, seeded_matrices,
)



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


def test_from_matrix_reads_every_nonzero_block_and_inverts_to_matrix():
    # from_matrix reads the weights off the kept successor masks and columns;
    # against A.block over every off-diagonal block.  An invalid candidate
    # is refused before it is a matrix, so it never reaches from_matrix.
    for omega, rows in seeded_candidates():
        if not is_valid(omega, rows):
            with pytest.raises(InvalidMatrixError):
                ReducedMatrix(omega, rows)
            continue
        A = ReducedMatrix(omega, rows)
        k = A.omega.k
        G = from_matrix(A)
        assert G.edges == {
            (i, j): A.block(i, j)
            for i in range(k)
            for j in range(k)
            if i != j and A.block(i, j)
        }
        assert to_matrix(G) == A


@pytest.mark.parametrize("dims", [*EVERY_MATRIX_FAMILIES, (1, 2, 4)])
def test_the_checked_constructor_builds_every_digraph_from_matrix_trusts(dims):
    # from_matrix builds its digraph without the constructor's checks, since
    # the matrix's constructor already found the relation acyclic.  Given the
    # same edges, the checked constructor accepts them, keeps every edge and
    # gives the same Spin verdict.
    for A in enumerate_valid(DimensionVector(dims)):
        G = from_matrix(A)
        checked = WeightedDigraph(A.omega, G.edges)
        assert checked == G
        assert has_spin_digraph(checked) == has_spin_digraph(G)


def test_spin_digraph_reads_the_weighted_in_degrees():
    # has_spin_digraph sums the in-degrees in one pass over the edges; its
    # orientability and its condition-i verdict must be those of
    # weighted_in_degree at every vertex.
    for A in seeded_matrices():
        G, omega = from_matrix(A), A.omega
        indeg = [weighted_in_degree(G, v) for v in range(omega.k)]
        report = has_spin_digraph(G)
        assert report.orientable == all((d + n) % 2 == 1 for d, n in zip(indeg, omega.dims))
        failing = [
            v
            for v, (d, n) in enumerate(zip(indeg, omega.dims))
            if (d % 2 if n == 1 else d % 4 != (3 - n) % 4)
        ]
        if failing:
            assert (report.failed_condition, report.witness) == ("i", (failing[0],))
        else:
            assert report.failed_condition != "i"


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
            assert weighted_in_degree(g, i) == A.k_count((i, i)) - A.omega.dims[i]


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


# Per family, the matrices whose two Spin reports name another failed
# condition or witness, by (matrix tag, digraph tag, same witness).  The
# matrix form checks condition ii only on pairs of non-interval factors and
# condition iii on every pair of interval factors in lexicographic order; the
# digraph form checks ii on every non-adjacent pair and walks the sorted
# edges for iii and iv.  The verdicts agree everywhere.
REPORT_DIVERGENCES = {
    (1, 1): {},
    (1, 2): {},
    (1, 1, 1): {},
    (1, 1, 2): {},
    (2, 2, 2): {},
    (1, 1, 1, 1): {},
    (1, 2, 2): {("ii", "iv", False): 2, ("ii", "iv", True): 2},
    (1, 2, 4): {("ii", "iv", True): 1},
    (2, 3): {("ii", "iv", False): 3},
    (2, 2, 3): {("ii", "iv", False): 15, ("ii", "iv", True): 9},
    (3, 3, 3): {("ii", "iv", False): 6, ("ii", "iv", True): 12},
    (1, 1, 1, 1, 1): {
        ("iii", "ii", True): 420, ("iii", "ii", False): 60, ("iii", "iii", False): 180,
    },
}


@pytest.mark.parametrize("dims", list(REPORT_DIVERGENCES))
def test_the_spin_deciders_agree_on_the_verdict_but_not_always_on_the_condition(dims):
    diverged = {}
    for A in enumerate_valid(dv(*dims)):
        matrix, graph = has_spin(A), has_spin_digraph(from_matrix(A))
        assert (matrix.orientable, matrix.spin) == (graph.orientable, graph.spin)
        if (matrix.failed_condition, matrix.witness) != (graph.failed_condition, graph.witness):
            key = (matrix.failed_condition, graph.failed_condition, matrix.witness == graph.witness)
            diverged[key] = diverged.get(key, 0) + 1
    assert diverged == REPORT_DIVERGENCES[dims]


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


def test_large_digraphs_need_the_closure_only_to_name_a_cycle(monkeypatch):
    # Acyclicity is Kahn's peel, linear in the arcs; the strongly connected
    # components run only to name the vertices of a cycle, without recursion,
    # so a ring longer than the recursion limit is named too.
    k = 3200
    path = {(i, i + 1): 1 for i in range(k - 1)}
    ring = {**path, (k - 1, 0): 1}

    def refuse(succ):
        raise AssertionError("cycle_vertices on an acyclic digraph")

    with monkeypatch.context() as patched:
        patched.setattr(model, "cycle_vertices", refuse)
        patched.setattr(digraph, "cycle_vertices", refuse)
        G = WeightedDigraph(DimensionVector((1,) * k), path)
    assert G.edges == path
    with pytest.raises(CyclicDigraphError) as exc:
        WeightedDigraph(DimensionVector((1,) * k), ring)
    assert str(exc.value) == f"directed cycle through vertices {list(range(1, k + 1))}"


def test_zero_weight_edges_are_normalized_away():
    g = WeightedDigraph(dv(1, 1), {(0, 1): 0})
    assert g.edges == {}
    assert g == WeightedDigraph(dv(1, 1), {})


def test_weight_of_absent_edge_is_zero_vector(tower_2333):
    g = from_matrix(tower_2333)
    assert g.weight(1, 0) == 0
    assert (0, 1) in g.edges and (1, 0) not in g.edges
    assert (1, 2) not in g.edges and (2, 1) not in g.edges
    assert sorted(u for u, t in g.edges if t == 1) == [0, 3]


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


def test_serialized_digraph_is_the_indented_json_dump():
    # The direct writer against json.dumps(indent=2) of the same object, on
    # seeded digraphs of every query shape and on one with no edges.
    common, rng = perfbench_common(), random.Random(41)
    graphs = [from_matrix(identity_matrix(dv(2, 3)))]
    graphs += [
        from_matrix(ReducedMatrix(dv(*dims), common.random_valid_matrix(rng, dims)))
        for dims in common.QUERY_SHAPES
        for _ in range(100)
    ]
    assert not graphs[0].edges and sum(len(g.edges) > 1 for g in graphs) > 500
    for g in graphs:
        dims = g.omega.dims
        obj = {
            "omega": list(dims),
            "edges": [
                {"from": i + 1, "to": j + 1, "w": model.bit_string(w, dims[i])}
                for (i, j), w in sorted(g.edges.items())
            ],
        }
        assert serialize_digraph(g) == json.dumps(obj, indent=2) + "\n"


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
