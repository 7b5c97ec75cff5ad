"""Weighted acyclic digraphs equivalent to reduced characteristic matrices.

A matrix A corresponds to the digraph on vertices v_1..v_k with dimension
function omega whose adjacency matrix is A - I_omega: an edge (i, j) carries
the off-diagonal block v_ij whenever that block is nonzero.  Validity of A
translates to acyclicity, and the Spin criterion translates to congruences
on weighted in-degrees and common-source sums.
"""

from __future__ import annotations

import itertools
import json
from typing import Mapping

from .model import (
    DimensionVector,
    ReducedMatrix,
    SpinReport,
    bit_string,
    block_successors,
    cycle_vertices,
    identity_rows,
    is_cyclic,
    spin_verdict,
)


class CyclicDigraphError(ValueError):
    """The edge relation contains a directed cycle."""


class DigraphFormatError(ValueError):
    """Malformed digraph JSON."""


class WeightedDigraph:
    """Acyclic digraph with edge (i, j) weighted by a vector in GF(2)^omega(i),
    held as an int whose bit t is entry t.

    Zero-weight edges are dropped at construction, so equality never
    depends on how absent edges were written down.
    """

    __slots__ = ("omega", "edges")

    def __init__(self, omega: DimensionVector, edges: Mapping[tuple[int, int], int]):
        k, dims = omega.k, omega.dims
        clean: dict[tuple[int, int], int] = {}
        succ = [0] * k
        for (i, j), w in edges.items():
            if not (0 <= i < k and 0 <= j < k):
                raise ValueError(f"edge ({i}, {j}) out of range")
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            if w < 0 or w >> dims[i]:
                raise ValueError(
                    f"edge ({i}, {j}) weight {w} does not fit in "
                    f"omega({i}) = {dims[i]} bits"
                )
            if w:
                clean[(i, j)] = w
                succ[i] |= 1 << j
        if is_cyclic(succ):
            on_cycle = [v + 1 for v in cycle_vertices(succ)]
            raise CyclicDigraphError(f"directed cycle through vertices {on_cycle}")
        self.omega = omega
        self.edges = clean

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WeightedDigraph)
            and self.omega == other.omega
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.omega, frozenset(self.edges.items())))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{i + 1}->{j + 1}:{bit_string(w, self.omega.dims[i])}"
            for (i, j), w in sorted(self.edges.items())
        )
        return f"WeightedDigraph(omega={self.omega.dims}, [{body}])"

    def weight(self, i: int, j: int) -> int:
        """Weight of (i, j); 0 when the edge is absent."""
        return self.edges.get((i, j), 0)


def from_matrix(A: ReducedMatrix) -> WeightedDigraph:
    """Digraph with adjacency matrix A - I_omega, read off A's columns.

    It is built without the checks of the `WeightedDigraph` constructor: the
    edges of a `ReducedMatrix` are in range, loop-free and nonzero, each
    weight is masked to its block, and A's constructor found them acyclic."""
    cols, dims, offsets = A.columns, A.omega.dims, A.omega.offsets
    edges = {}
    for i, succ in enumerate(block_successors(A)):
        off, mask = offsets[i], (1 << dims[i]) - 1
        while succ:
            j = (succ & -succ).bit_length() - 1
            edges[(i, j)] = (cols[j] >> off) & mask
            succ &= succ - 1
    G = object.__new__(WeightedDigraph)
    G.omega, G.edges = A.omega, edges
    return G


def to_matrix(G: WeightedDigraph) -> ReducedMatrix:
    """Reduced matrix A = adjacency(G) + I_omega."""
    omega = G.omega
    rows = identity_rows(omega)
    for (i, j), w in G.edges.items():
        off = omega.offsets[i]
        for t in range(omega.dims[i]):
            if (w >> t) & 1:
                rows[off + t] |= 1 << j
    return ReducedMatrix(omega, rows)


def weighted_in_degree(G: WeightedDigraph, i: int) -> int:
    """Sum over in-neighbors u of the popcount of w(u, v_i)."""
    if not 0 <= i < G.omega.k:
        raise IndexError(i)
    return sum(w.bit_count() for (u, t), w in G.edges.items() if t == i)


def _in_degrees(G: WeightedDigraph) -> list[int]:
    """`weighted_in_degree` of every vertex, in one pass over the edges."""
    indeg = [0] * G.omega.k
    for (_, j), w in G.edges.items():
        indeg[j] += w.bit_count()
    return indeg


def common_source_sum(G: WeightedDigraph, i: int, j: int) -> int:
    """M_ij: sum of w(u, v_i) . w(u, v_j) over common in-neighbors u."""
    if i == j:
        raise ValueError("common sources of a vertex with itself")
    edges, total = G.edges, 0
    for (u, t), w in edges.items():
        if t == i and (u, j) in edges:
            total += (w & edges[(u, j)]).bit_count()
    return total


def has_spin_digraph(G: WeightedDigraph) -> SpinReport:
    """Spin criterion read off the digraph, no matrix reconstruction.

    The halved expression of condition iii needs the in-degree to be even,
    which condition i guarantees; conditions are therefore evaluated in
    order with the first failure reported.
    """
    k, edges, dims = G.omega.k, G.edges, G.omega.dims
    indeg = _in_degrees(G)
    orientable = all([(indeg[v] + dims[v]) % 2 == 1 for v in range(k)])

    def report(tag: str, witness: tuple[int, ...]) -> SpinReport:
        return spin_verdict(orientable, False, tag, witness)

    for v in range(k):
        if dims[v] == 1:
            if indeg[v] % 2 != 0:
                return report("i", (v,))
        elif indeg[v] % 4 != (3 - dims[v]) % 4:
            return report("i", (v,))
    for i, j in itertools.combinations(range(k), 2):
        non_adjacent = (i, j) not in edges and (j, i) not in edges
        if non_adjacent and common_source_sum(G, i, j) % 2 != 0:
            return report("ii", (i, j))
    by_edge = sorted(edges.items())
    for (i, j), w in by_edge:
        if dims[i] == 1 and common_source_sum(G, i, j) % 2 != (w * indeg[i] // 2) % 2:
            return report("iii", (i, j))
    for (i, j), w in by_edge:
        if dims[i] != 1 and common_source_sum(G, i, j) % 2 != w.bit_count() % 2:
            return report("iv", (i, j))
    return spin_verdict(orientable, True)


def w3_vanishes_digraph(G: WeightedDigraph) -> bool:
    """w3 = 0 test in digraph terms, for omega(v) >= 3 everywhere.

    Uses the translations k_i = deg-(v_i) + omega(i) and k_ij = M_ij +
    |w(v_i,v_j)| + |w(v_j,v_i)|; the triple condition sums the translated
    pair counts over the three unordered pairs of the triple.
    """
    if any(d < 3 for d in G.omega.dims):
        raise ValueError("every vertex dimension must be at least 3")
    k = G.omega.k
    single = [d + n for d, n in zip(_in_degrees(G), G.omega.dims)]

    def pair_count(i: int, j: int) -> int:
        return (
            common_source_sum(G, i, j)
            + G.weight(i, j).bit_count()
            + G.weight(j, i).bit_count()
        )

    for v in range(k):
        if single[v] % 4 == 2:
            return False
    for i, j in itertools.combinations(range(k), 2):
        if single[i] % 2 == 1 or single[j] % 2 == 1:
            pattern = sorted((single[i] % 4, single[j] % 4)) == [0, 1]
            if (pair_count(i, j) % 2 == 1) != pattern:
                return False
    for tri in itertools.combinations(range(k), 3):
        if all(single[p] % 4 == 0 for p in tri):
            s = sum(pair_count(p, q) for p, q in itertools.combinations(tri, 2))
            if s % 2 != 1:
                return False
    return True


def _is_int(value: object) -> bool:
    """A JSON integer; JSON true and false load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_digraph(text: str) -> WeightedDigraph:
    """Read the JSON form: {"omega": [...], "edges": [{from, to, w}, ...]}.

    Vertices are 1-based and weights are bit strings with the first entry
    leftmost.  Unknown fields anywhere are rejected.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DigraphFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DigraphFormatError("top level must be an object")
    extra = set(obj) - {"omega", "edges"}
    if extra:
        raise DigraphFormatError(f"unknown fields {sorted(extra)}")
    if "omega" not in obj:
        raise DigraphFormatError("missing field 'omega'")
    dims = obj["omega"]
    if (
        not isinstance(dims, list)
        or not dims
        or not all(_is_int(d) and d >= 1 for d in dims)
    ):
        raise DigraphFormatError("'omega' must be a nonempty list of positive integers")
    omega = DimensionVector(tuple(dims))
    k = omega.k
    edges: dict[tuple[int, int], int] = {}
    listed = obj.get("edges", [])
    if not isinstance(listed, list):
        raise DigraphFormatError("'edges' must be a list")
    for pos, edge in enumerate(listed):
        where = f"edges[{pos}]"
        if not isinstance(edge, dict):
            raise DigraphFormatError(f"{where} must be an object")
        extra = set(edge) - {"from", "to", "w"}
        if extra:
            raise DigraphFormatError(f"{where} has unknown fields {sorted(extra)}")
        missing = {"from", "to", "w"} - set(edge)
        if missing:
            raise DigraphFormatError(f"{where} is missing {sorted(missing)}")
        src, dst, wstr = edge["from"], edge["to"], edge["w"]
        if not (_is_int(src) and 1 <= src <= k):
            raise DigraphFormatError(f"{where}: 'from' must be in 1..{k}")
        if not (_is_int(dst) and 1 <= dst <= k):
            raise DigraphFormatError(f"{where}: 'to' must be in 1..{k}")
        if src == dst:
            raise DigraphFormatError(f"{where}: loop at vertex {src}")
        if not isinstance(wstr, str) or any(ch not in "01" for ch in wstr):
            raise DigraphFormatError(f"{where}: 'w' must be a string of 0/1")
        if len(wstr) != omega.dims[src - 1]:
            raise DigraphFormatError(
                f"{where}: weight length {len(wstr)} != omega({src}) = {omega.dims[src - 1]}"
            )
        key = (src - 1, dst - 1)
        if key in edges:
            raise DigraphFormatError(f"{where}: duplicate edge {src}->{dst}")
        edges[key] = int(wstr[::-1], 2)
    return WeightedDigraph(omega, edges)


def serialize_digraph(G: WeightedDigraph) -> str:
    """The document `json.dumps(obj, indent=2)` writes for {"omega": [...],
    "edges": [{"from", "to", "w"}, ...]}, edges in order, plus a newline;
    written directly, since an indented dump skips the C encoder.  Every
    value is an int or a 0/1 string, which JSON needs no escape for."""
    dims = G.omega.dims
    omega = ",\n".join(f"    {n}" for n in dims)
    edges = ",\n".join(
        f'    {{\n      "from": {i + 1},\n      "to": {j + 1},\n'
        f'      "w": "{bit_string(w, dims[i])}"\n    }}'
        for (i, j), w in sorted(G.edges.items())
    )
    return (f'{{\n  "omega": [\n{omega}\n  ],\n'
            + (f'  "edges": [\n{edges}\n  ]\n}}\n' if edges else '  "edges": []\n}\n'))
