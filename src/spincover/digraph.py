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
from typing import Collection, Mapping

from .model import (
    DimensionVector,
    ReducedMatrix,
    block_arcs,
    identity_rows,
    require_valid,
    topological_order,
)
from .closedform import SpinReport


class CyclicDigraphError(ValueError):
    """The edge relation contains a directed cycle."""


class DigraphFormatError(ValueError):
    """Malformed digraph JSON."""


def _reaches_itself(v: int, arcs: Collection[tuple[int, int]]) -> bool:
    """Whether a directed path of length at least one leads from v back to v."""
    seen: set[int] = set()
    todo = [j for i, j in arcs if i == v]
    while todo:
        u = todo.pop()
        if u == v:
            return True
        if u not in seen:
            seen.add(u)
            todo.extend(j for i, j in arcs if i == u)
    return False


def _bit_string(w: int, width: int) -> str:
    """The bits of w, bit 0 leftmost."""
    return "".join(str((w >> t) & 1) for t in range(width))


class WeightedDigraph:
    """Acyclic digraph with edge (i, j) weighted by a vector in GF(2)^omega(i),
    held as an int whose bit t is entry t.

    Zero-weight edges are dropped at construction, so equality never
    depends on how absent edges were written down.
    """

    __slots__ = ("omega", "edges")

    def __init__(self, omega: DimensionVector, edges: Mapping[tuple[int, int], int]):
        k = omega.k
        clean: dict[tuple[int, int], int] = {}
        for (i, j), w in edges.items():
            if not (0 <= i < k and 0 <= j < k):
                raise ValueError(f"edge ({i}, {j}) out of range")
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            if w < 0 or w >> omega[i]:
                raise ValueError(
                    f"edge ({i}, {j}) weight {w} does not fit in "
                    f"omega({i}) = {omega[i]} bits"
                )
            if w:
                clean[(i, j)] = w
        if len(topological_order(k, clean)) != k:
            on_cycle = [v + 1 for v in range(k) if _reaches_itself(v, clean)]
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
            f"{i + 1}->{j + 1}:{_bit_string(w, self.omega[i])}"
            for (i, j), w in sorted(self.edges.items())
        )
        return f"WeightedDigraph(omega={self.omega.dims}, [{body}])"

    def weight(self, i: int, j: int) -> int:
        """Weight of (i, j); 0 when the edge is absent."""
        return self.edges.get((i, j), 0)

    def in_neighbors(self, j: int) -> list[int]:
        return sorted(i for (i, t) in self.edges if t == j)

    def adjacent(self, i: int, j: int) -> bool:
        return (i, j) in self.edges or (j, i) in self.edges


def from_matrix(A: ReducedMatrix) -> WeightedDigraph:
    """Digraph with adjacency matrix A - I_omega."""
    require_valid(A)
    return WeightedDigraph(A.omega, {(i, j): A.block(i, j) for i, j in block_arcs(A)})


def to_matrix(G: WeightedDigraph) -> ReducedMatrix:
    """Reduced matrix A = adjacency(G) + I_omega."""
    omega = G.omega
    rows = identity_rows(omega)
    for (i, j), w in G.edges.items():
        off = omega.offset(i)
        for t in range(omega[i]):
            if (w >> t) & 1:
                rows[off + t] |= 1 << j
    return ReducedMatrix(omega, rows)


def weighted_in_degree(G: WeightedDigraph, i: int) -> int:
    """Sum over in-neighbors u of the popcount of w(u, v_i)."""
    if not 0 <= i < G.omega.k:
        raise IndexError(i)
    return sum(w.bit_count() for (u, t), w in G.edges.items() if t == i)


def common_source_sum(G: WeightedDigraph, i: int, j: int) -> int:
    """M_ij: sum of w(u, v_i) . w(u, v_j) over common in-neighbors u."""
    if i == j:
        raise ValueError("common sources of a vertex with itself")
    total = 0
    for u in G.in_neighbors(i):
        if (u, j) in G.edges:
            total += (G.edges[(u, i)] & G.edges[(u, j)]).bit_count()
    return total


def has_spin_digraph(G: WeightedDigraph) -> SpinReport:
    """Spin criterion read off the digraph, no matrix reconstruction.

    The halved expression of condition iii needs the in-degree to be even,
    which condition i guarantees; conditions are therefore evaluated in
    order with the first failure reported.
    """
    k = G.omega.k
    indeg = [weighted_in_degree(G, v) for v in range(k)]
    orientable = all((indeg[v] + G.omega[v]) % 2 == 1 for v in range(k))

    def report(tag: str, witness: tuple[int, ...]) -> SpinReport:
        return SpinReport(orientable, False, tag, witness)

    for v in range(k):
        if G.omega[v] == 1:
            if indeg[v] % 2 != 0:
                return report("i", (v,))
        elif indeg[v] % 4 != (3 - G.omega[v]) % 4:
            return report("i", (v,))
    for i, j in itertools.combinations(range(k), 2):
        if not G.adjacent(i, j) and common_source_sum(G, i, j) % 2 != 0:
            return report("ii", (i, j))
    for (i, j) in sorted(G.edges):
        if G.omega[i] != 1:
            continue
        w = G.edges[(i, j)]
        half = w * indeg[i] // 2
        if common_source_sum(G, i, j) % 2 != half % 2:
            return report("iii", (i, j))
    for (i, j) in sorted(G.edges):
        if G.omega[i] == 1:
            continue
        w = G.edges[(i, j)]
        if common_source_sum(G, i, j) % 2 != w.bit_count() % 2:
            return report("iv", (i, j))
    return SpinReport(orientable, True)


def w3_vanishes_digraph(G: WeightedDigraph) -> bool:
    """w3 = 0 test in digraph terms, for omega(v) >= 3 everywhere.

    Uses the translations k_i = deg-(v_i) + omega(i) and k_ij = M_ij +
    |w(v_i,v_j)| + |w(v_j,v_i)|; the triple condition sums the translated
    pair counts over the three unordered pairs of the triple.
    """
    if any(d < 3 for d in G.omega.dims):
        raise ValueError("every vertex dimension must be at least 3")
    k = G.omega.k
    single = [weighted_in_degree(G, v) + G.omega[v] for v in range(k)]

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
        if len(wstr) != omega[src - 1]:
            raise DigraphFormatError(
                f"{where}: weight length {len(wstr)} != omega({src}) = {omega[src - 1]}"
            )
        key = (src - 1, dst - 1)
        if key in edges:
            raise DigraphFormatError(f"{where}: duplicate edge {src}->{dst}")
        edges[key] = int(wstr[::-1], 2)
    return WeightedDigraph(omega, edges)


def serialize_digraph(G: WeightedDigraph) -> str:
    obj = {
        "omega": list(G.omega.dims),
        "edges": [
            {
                "from": i + 1,
                "to": j + 1,
                "w": _bit_string(w, G.omega[i]),
            }
            for (i, j), w in sorted(G.edges.items())
        ],
    }
    return json.dumps(obj, indent=2) + "\n"
