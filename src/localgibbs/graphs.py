"""Undirected multigraphs, standard test topologies, and edge-list files.

Graphs are immutable after construction. Parallel edges are permitted
everywhere (they carry independent interaction factors and independent
coins downstream); self-loops are rejected. A graph is its index arrays
alone, built by numpy: the canonical edge arrays, the flattened adjacency
and a rank-major slot table the vectorized round functions index into.
"""

from __future__ import annotations

import numpy as np

from .randomness import KIND_GRAPH_PAIRING, U64, hash_words


class ParseError(ValueError):
    """Malformed edge-list file; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EndpointOutOfRange(ValueError):
    pass


class GenerationFailed(RuntimeError):
    """Random generator exhausted its retry budget."""


class Graph:
    """Undirected multigraph on vertices 0..n-1, held as index arrays.

    Edge index e is the position of the edge in the input, and the edge
    joins eu[e] < ev[e]; emult[e] numbers the parallel copies of that pair
    0, 1, ... in edge order. The neighbours of v occupy
    nbr_flat[nbr_ptr[v]:nbr_ptr[v+1]] in edge order, nbr_edge giving each
    slot's edge, and degrees counts parallel edges with multiplicity.
    by_degree lists the vertices by descending degree, ties by ascending
    id, and degree_pos[v] is v's position in it.

    rank_ptr, rank_nbr and rank_edge hold the adjacency slots in rank-major
    order. Rank k (0 <= k < max degree) holds entries
    rank_ptr[k]:rank_ptr[k+1], one per vertex of degree > k; those
    vertices are by_degree[:rank_ptr[k+1] - rank_ptr[k]], in that order,
    and each entry gives the neighbor and the edge index at that vertex's
    k-th slot nbr_ptr[v] + k. A neighborhood reduction is then one
    elementwise step per rank over a prefix of the by_degree order.

    Args:
        n: vertex count, >= 1.
        edges: an (m, 2) integer array or a sequence of (u, v) pairs.

    Raises:
        EndpointOutOfRange, ValueError: the first edge in edge order with
            an endpoint outside [0, n), or else a self-loop, is named.
    """

    def __init__(self, n: int, edges):
        if n < 1:
            raise ValueError("vertex count must be >= 1")
        self.n = int(n)
        e = np.asarray(edges, dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        self.m = len(e)
        outside = ((e < 0) | (e >= n)).any(axis=1)
        bad = outside | (e[:, 0] == e[:, 1])
        if bad.any():
            i = int(bad.argmax())
            u, v = e[i].tolist()
            if outside[i]:
                raise EndpointOutOfRange(f"edge ({u}, {v}) outside [0, {n})")
            raise ValueError(f"self-loop at vertex {u}")

        self.eu, self.ev = e.min(axis=1), e.max(axis=1)
        # parallel copies of a pair are adjacent in the stable pair order
        order = np.lexsort((self.ev, self.eu))
        su, sv = self.eu[order], self.ev[order]
        first = np.ones(self.m, dtype=bool)
        first[1:] = (su[1:] != su[:-1]) | (sv[1:] != sv[:-1])
        idx = np.arange(self.m)
        self.emult = np.empty(self.m, dtype=np.int64)
        self.emult[order] = idx - np.maximum.accumulate(
            np.where(first, idx, 0))
        # slot 2e + j is edge e's end j; a stable sort by owner keeps each
        # vertex's slots in edge order
        ends = e.reshape(-1)
        slot_order = np.argsort(ends, kind="stable")
        self.nbr_flat = e[:, ::-1].reshape(-1)[slot_order]
        self.nbr_edge = slot_order >> 1
        self.degrees = np.bincount(ends, minlength=self.n)
        self.nbr_ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=self.nbr_ptr[1:])

        self.by_degree = np.argsort(-self.degrees, kind="stable")
        self.degree_pos = np.empty(self.n, dtype=np.int64)
        self.degree_pos[self.by_degree] = np.arange(self.n)
        # rank k has one entry per vertex of degree > k
        at_most = np.cumsum(np.bincount(self.degrees))[:-1]
        self.rank_ptr = np.zeros(len(at_most) + 1, dtype=np.int64)
        np.cumsum(self.n - at_most, out=self.rank_ptr[1:])
        owner = np.repeat(np.arange(self.n), self.degrees)
        slots = np.arange(len(self.nbr_flat))
        rank = slots - self.nbr_ptr[owner]
        rank_slot = np.empty_like(slots)
        rank_slot[self.rank_ptr[rank] + self.degree_pos[owner]] = slots
        self.rank_nbr = self.nbr_flat[rank_slot]
        self.rank_edge = self.nbr_edge[rank_slot]
        for arr in (self.eu, self.ev, self.emult, self.degrees,
                    self.nbr_flat, self.nbr_ptr, self.nbr_edge,
                    self.by_degree, self.degree_pos, self.rank_ptr,
                    self.rank_nbr, self.rank_edge):
            arr.setflags(write=False)

    def max_degree(self) -> int:
        return int(self.degrees.max())

    def distances(self, source: int) -> np.ndarray:
        """BFS hop distances from source; -1 marks unreachable vertices."""
        dist = np.full(self.n, -1, dtype=np.int64)
        dist[source] = 0
        frontier = np.array([source])
        d = 0
        while frontier.size:
            d += 1
            # every neighbour slot of the frontier, vertex by vertex
            deg = self.degrees[frontier]
            first = np.repeat(self.nbr_ptr[frontier] - np.cumsum(deg) + deg,
                              deg)
            nbrs = self.nbr_flat[first + np.arange(len(first))]
            frontier = np.unique(nbrs[dist[nbrs] < 0])
            dist[frontier] = d
        return dist

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid(rows: int, cols: int) -> Graph:
    """Axis-aligned grid, vertices numbered row-major."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs rows, cols >= 1")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


_PAIRING_RETRY_CAP = 1000


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Simple d-regular graph via the pairing model.

    Lays out n*d stubs, pairs them under a seeded shuffle, and rejects the
    whole attempt on any self-loop or parallel edge. The shuffle keys come
    from the package's counter-based hash, so results are stable across
    platforms and library versions.

    Raises:
        GenerationFailed: after 1000 rejected attempts.
    """
    if d < 0 or d >= n:
        raise ValueError("need 0 <= d < n")
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    for attempt in range(_PAIRING_RETRY_CAP):
        keys = hash_words(U64(seed % (1 << 64)), KIND_GRAPH_PAIRING,
                          U64(attempt), np.arange(len(stubs), dtype=U64))
        perm = stubs[np.argsort(keys, kind="stable")]
        a, b = perm[0::2], perm[1::2]
        if np.any(a == b):
            continue
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        canon = lo * n + hi
        if len(np.unique(canon)) != len(canon):
            continue
        return Graph(n, np.stack([lo, hi], 1))
    raise GenerationFailed(
        f"no simple {d}-regular graph on {n} vertices in {_PAIRING_RETRY_CAP} attempts")


def load_edge_list(path_: str) -> Graph:
    """Read a header line "n m" and then one "u v" line per edge; '#'
    starts a comment line. Errors name the 1-based line (0: the whole file).
    """
    header = None
    edges = []
    with open(path_, "r", encoding="utf-8") as f:
        for line_no, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(line_no, f"expected two fields, got {len(parts)}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(line_no, f"non-integer field in {line!r}") from None
            if header is None:
                header = (a, b)
                continue
            n = header[0]
            if not (0 <= a < n and 0 <= b < n):
                raise ParseError(line_no, f"edge ({a}, {b}) outside [0, {n})")
            if a == b:
                raise ParseError(line_no, f"self-loop ({a}, {b})")
            edges.append((a, b))
    if header is None:
        raise ParseError(0, "empty file")
    n, m = header
    if len(edges) != m:
        raise ParseError(0, f"header promised {m} edges, file has {len(edges)}")
    return Graph(n, edges)
