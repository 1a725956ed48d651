"""Markov random fields: instances, weights, feasibility, conditional marginals.

An instance assigns a symmetric non-negative q x q interaction matrix to
every edge and a non-negative activity vector to every vertex. The weight
of a configuration is the product of one matrix entry per edge and one
vector entry per vertex; the Gibbs distribution is the weight normalized
over all q^n configurations. A configuration is feasible when its weight
is positive.

Configurations are plain integer numpy arrays (single: shape (n,); batched:
shape (n_runs, n)) with values in [0, q). The batch functions read a batch
vertex-major, through its transpose, so the transpose of a chain's carried
(n, rows) batch costs no copy. Everything here is pure and instances are
immutable after construction.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph


class ZeroMarginal(ValueError):
    """Conditional update distribution has zero total mass at a vertex.

    Raised when every spin at the vertex is excluded by the neighboring
    assignment, i.e. the single-site update is ill-defined there. A chain
    round also names the run and round it was executing; both are None
    when the marginal is asked for outside a chain.
    """

    def __init__(self, vertex: int, run: int | None = None,
                 round: int | None = None):
        where = "" if run is None else f" in run {run}, round {round}"
        super().__init__(
            f"conditional marginal at vertex {vertex} has zero mass{where}")
        self.vertex = vertex
        self.run = run
        self.round = round


class DegenerateActivity(ValueError):
    """All-zero activity matrix or vector; carries no distribution."""


def _check_activities(stack: np.ndarray, what: str) -> None:
    """Check (m, q, q) edge matrices or (n, q) vertex vectors as one stack.
    The first check that fails (non-negative, symmetric for edges, not all
    zero) raises, naming the first edge or vertex that fails it."""
    axes = tuple(range(1, stack.ndim))
    checks = [(ValueError, "must be non-negative", (stack < 0).any(axes))]
    if stack.ndim == 3:
        # instances are authored, not computed, so symmetry is checked exactly
        checks.append((ValueError, "must be symmetric",
                       (stack != stack.transpose(0, 2, 1)).any(axes)))
    checks.append((DegenerateActivity, "is all zero", ~(stack > 0).any(axes)))
    for exc, msg, bad in checks:
        if bad.any():
            raise exc(f"{what} activity of {what} {int(bad.argmax())} {msg}")


class MrfInstance:
    """A graph with one interaction matrix per edge and one activity per vertex.

    Args:
        graph: the underlying multigraph. Parallel edges carry independent
            interaction factors.
        q: spin-state count, >= 2. Spins are 0-based.
        edge_activities: a single (q, q) matrix shared by every edge, or a
            sequence with one matrix per edge in graph.edges order.
        vertex_activities: a single length-q vector shared by every vertex,
            or a sequence with one vector per vertex.

    Attributes:
        A: (m, q, q) stacked edge matrices.
        b: (n, q) stacked vertex activities.

    Both arrays are read-only. The instance is the model alone; each chain
    builds the tables its round reads from them (chains.plan).

    Raises:
        ValueError: q < 2, misshapen activities, a negative entry or an
            asymmetric edge matrix; the first offending edge or vertex is
            named ("edge activity of edge 5 must be symmetric").
        DegenerateActivity: an all-zero edge matrix or vertex vector.
    """

    def __init__(self, graph: Graph, q: int, edge_activities, vertex_activities):
        if q < 2:
            raise ValueError("need q >= 2 spin states")
        self.graph = graph
        self.q = int(q)
        n, m = graph.n, graph.m

        ea = np.asarray(edge_activities if m else np.zeros((0, q, q)), np.float64)
        if ea.ndim == 2:
            ea = np.broadcast_to(ea, (m, q, q))
        if ea.shape != (m, q, q):
            raise ValueError(f"expected {m} edge activities of shape ({q}, {q})")
        # C order: a copy of a broadcast matrix would keep the edge axis
        # innermost, and every flat read of A would copy it
        self.A = np.array(ea, order="C")
        _check_activities(self.A, "edge")

        vb = np.asarray(vertex_activities, dtype=np.float64)
        if vb.ndim == 1:
            vb = np.broadcast_to(vb, (n, q))
        if vb.shape != (n, q):
            raise ValueError(f"expected {n} vertex activities of length {q}")
        self.b = np.array(vb)
        _check_activities(self.b, "vertex")
        self.A.setflags(write=False)
        self.b.setflags(write=False)

    @property
    def n(self) -> int:
        return self.graph.n

    def __repr__(self):
        return f"MrfInstance(n={self.n}, m={self.graph.m}, q={self.q})"


def _sample_from_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw from a spin-major cdf: smallest spin whose
    cumulative strictly exceeds u.

    cdf[c] holds spin c's cumulative, broadcast against u; the last entry is
    exactly 1.0 and u < 1, so it never counts and is skipped. Counting
    boundary entries with <= means a zero-probability spin (a flat cdf step)
    can never be hit, even when u lands exactly on the boundary. The
    spins come back in the counter: the narrowest unsigned dtype that holds
    len(cdf) - 1 (uint8 up to q = 256).
    """
    count = np.zeros(np.broadcast_shapes(cdf.shape[1:], u.shape),
                     np.min_scalar_type(len(cdf) - 1))
    for c in range(len(cdf) - 1):
        count += cdf[c] <= u
    return count


def spin_major_cdf(p: np.ndarray) -> np.ndarray:
    """Spin-major conditional numerators, (q, cols), into their CDFs in
    place; returns the (cols,) boolean array of the columns with no mass,
    whose entries are then not a CDF.

    The denominator and the running sum add whole rows in spin order, so
    each column's arithmetic is that of a loop over its spins, whatever the
    number of columns. The last row is forced to exactly 1.0.
    """
    # not p.sum(axis=0): numpy sums a single column pairwise
    denom = p[0].copy()
    for c in range(1, len(p)):
        denom += p[c]
    dead = denom <= 0
    with np.errstate(invalid="ignore"):  # 0 / 0 in the dead columns
        p /= denom
    for c in range(1, len(p)):
        p[c] += p[c - 1]
    p[-1] = 1.0
    return dead


def validate_configuration(inst: MrfInstance, sigma) -> np.ndarray:
    """sigma as an integer array, after checking that its shape is (n,) or
    (rows, n) and that every spin is a whole number in [0, q). Integer
    arrays keep their dtype; bool and float arrays of whole numbers become
    int64, so that no spin indexes as a mask."""
    sigma = np.asarray(sigma)
    if sigma.ndim not in (1, 2) or sigma.shape[-1] != inst.n:
        raise ValueError(f"configuration shape {sigma.shape} is neither "
                         f"({inst.n},) nor (rows, {inst.n})")
    # NaN fails here too: the bounds test below cannot see it
    if sigma.dtype.kind not in "biu" and not np.all(sigma == np.floor(sigma)):
        raise ValueError("spins must be whole numbers")
    if sigma.size and (sigma.min() < 0 or sigma.max() >= inst.q):
        raise ValueError(f"spins must lie in [0, {inst.q})")
    return sigma if sigma.dtype.kind in "iu" else sigma.astype(np.int64)


def _index_dtype(inst: MrfInstance) -> np.dtype:
    """The narrowest unsigned dtype that holds every flat factor position
    and q itself (as _filter_factors sizes its own), so that spins below q
    cast to it exactly."""
    q = inst.q
    return np.min_scalar_type(max(inst.graph.m * q * q - 1, inst.n * q - 1, q))


def _offsets(step: int, like: np.ndarray, axis: int) -> np.ndarray:
    """step * i for each position i along axis (0 or -1) of like, in its
    dtype, shaped to broadcast over its other axes."""
    off = (np.arange(like.shape[axis]) * step).astype(like.dtype)
    return off if axis == -1 else off.reshape((-1,) + (1,) * (like.ndim - 1))


def _vertex_index(inst: MrfInstance, x: np.ndarray, axis: int = 0):
    """v*q + x_v for each spin of a batch x whose vertices run along axis
    (0 for a vertex-major batch, -1 for rows of configurations): the flat
    position of each vertex factor in b, in _index_dtype.

    np.take on the flattened tables is several times faster than the
    equivalent fancy lookups b[arange(n), x] and A[arange(m), x_u, x_v].
    """
    vi = x.astype(_index_dtype(inst))
    vi += _offsets(inst.q, vi, axis)
    return vi


def _edge_index(inst: MrfInstance, x: np.ndarray, axis: int = 0):
    """e*q*q + x_u*q + x_v for each edge of a batch x whose vertices run
    along axis (as in _vertex_index), with the edges along that axis: the
    flat position of each edge factor in A, in _index_dtype. Each end is
    one gather of x along axis, whole rows of a vertex-major batch as in
    the rounds."""
    g, q = inst.graph, inst.q
    # in place: one edge-sized temporary at a time
    ei = np.take(x, g.eu, axis).astype(_index_dtype(inst))
    ei *= q
    ei += np.take(x, g.ev, axis).astype(ei.dtype, copy=False)
    ei += _offsets(q * q, ei, axis)
    return ei


def weight_batch(inst: MrfInstance, sigmas: np.ndarray) -> np.ndarray:
    """Weights of a (n_runs, n) batch of configurations, shape (n_runs,).

    The batch is read row by row, as the oracle's enumerations are laid
    out, and each row's product runs over its factors in vertex and edge
    order. An edgeless graph's empty product is exactly 1.0.
    """
    # narrowed once: the gathers then move 1- or 2-byte spins
    x = validate_configuration(inst, sigmas).astype(_index_dtype(inst))
    return np.prod(np.take(inst.b, _vertex_index(inst, x, -1)), axis=-1) \
        * np.prod(np.take(inst.A, _edge_index(inst, x, -1)), axis=-1)


def weight(inst: MrfInstance, sigma) -> float:
    """Product of one interaction entry per edge and one activity per vertex."""
    return float(weight_batch(inst, np.asarray(sigma)[None, :])[0])


def feasible_batch(inst: MrfInstance, sigmas: np.ndarray,
                   vi=None) -> np.ndarray:
    """Boolean feasibility of each row of a (rows, n) batch: a zero-factor
    test, with no underflow risk.

    The batch is read vertex-major, as C-ordered sigmas.T: the transpose of
    a carried (n, rows) batch is read in place, one whole row per vertex
    and edge end, and any other batch is copied to that layout first. vi,
    when given, is _vertex_index(inst, sigmas.T), already built by the
    caller (the sample command counts spins from it too).
    """
    x = np.ascontiguousarray(validate_configuration(inst, sigmas).T,
                             np.min_scalar_type(inst.q - 1))
    if vi is None:
        vi = _vertex_index(inst, x)
    ok = np.all(np.take(inst.b > 0, vi), axis=0)
    ok &= np.all(np.take(inst.A > 0, _edge_index(inst, x)), axis=0)
    return ok


def is_feasible(inst: MrfInstance, sigma) -> bool:
    return bool(feasible_batch(inst, np.asarray(sigma)[None, :])[0])


def marginal(inst: MrfInstance, v: int, x) -> np.ndarray:
    """Single-site conditional distribution at v given the rest of x.

    Returns the length-q vector proportional to
    b_v(c) * prod over neighbors u of A_{uv}(c, x_u); only the entries of x
    on the neighborhood of v are read.

    Raises:
        ZeroMarginal: the normalizer is zero (every spin conflicts).
    """
    x = validate_configuration(inst, x)
    g = inst.graph
    lo, hi = g.nbr_ptr[v], g.nbr_ptr[v + 1]
    numer = inst.b[v].copy()
    for slot in range(lo, hi):
        numer *= inst.A[g.nbr_edge[slot], x[g.nbr_flat[slot]]]
    total = numer.sum()
    if total <= 0:
        raise ZeroMarginal(v)
    return numer / total
