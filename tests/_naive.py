"""Slow reference implementations used as independent oracles in tests.

Everything here recomputes quantities from first principles with plain
Python loops, deliberately sharing no code path with the package.
"""

import itertools


def naive_weight(edges, A_per_edge, b_per_vertex, sigma):
    """Product of edge factors times vertex factors, factor by factor."""
    w = 1.0
    for (u, v), A in zip(edges, A_per_edge):
        w *= A[sigma[u]][sigma[v]]
    for v, b in enumerate(b_per_vertex):
        w *= b[sigma[v]]
    return w


def all_sigmas(n, q):
    """Every configuration as a tuple, little-endian rank order."""
    for rank in range(q ** n):
        sigma = []
        r = rank
        for _ in range(n):
            sigma.append(r % q)
            r //= q
        yield tuple(sigma)


def naive_gibbs(edges, A_per_edge, b_per_vertex, n, q):
    """(probs keyed by rank, Z) by exhaustive summation."""
    weights = [naive_weight(edges, A_per_edge, b_per_vertex, s)
               for s in all_sigmas(n, q)]
    Z = sum(weights)
    return [w / Z for w in weights] if Z > 0 else None, Z


def is_proper_coloring(edges, sigma):
    return all(sigma[u] != sigma[v] for u, v in edges)


def independent_sets(edges, n):
    """All 0/1 tuples selecting no edge's both endpoints."""
    out = []
    for bits in itertools.product((0, 1), repeat=n):
        if all(not (bits[u] and bits[v]) for u, v in edges):
            out.append(bits)
    return out


def naive_marginal(edges, A_per_edge, b_per_vertex, q, v, x):
    """Conditional spin distribution at v given neighbor spins in x."""
    numer = []
    for c in range(q):
        p = b_per_vertex[v][c]
        for (a, b), A in zip(edges, A_per_edge):
            if a == v:
                p *= A[c][x[b]]
            elif b == v:
                p *= A[c][x[a]]
        numer.append(p)
    Z = sum(numer)
    return None if Z == 0 else [p / Z for p in numer]


def naive_tv(p, r):
    return 0.5 * sum(abs(a - b) for a, b in zip(p, r))


def naive_local_max(edges, n, keys):
    """Local-maximum rule on one row of score words, vertex by vertex.

    v is selected when (keys[v], v) beats (keys[u], u) lexicographically
    for every neighbor u; a vertex without neighbors is always selected.
    """
    selected = [True] * n
    for a, b in edges:
        if (keys[a], a) > (keys[b], b):
            selected[b] = False
        else:
            selected[a] = False
    return selected


def naive_all_incident(edges, n, passed):
    """Per-vertex AND of the passes of its incident edges (True if none)."""
    out = [True] * n
    for (a, b), ok in zip(edges, passed):
        if not ok:
            out[a] = out[b] = False
    return out


def naive_conditional_cdf(edges, A_per_edge, b_per_vertex, q, v, x):
    """The CDF of v's conditional given x, summed in spin order.

    The conditional multiplies the edge factors in edge-list order, which
    is the order of the vertex's adjacency slots. The last entry is forced
    to exactly 1.0.
    """
    prod = [1.0] * q
    for (a, b), A in zip(edges, A_per_edge):
        if v in (a, b):
            other = b if a == v else a
            for c in range(q):
                prod[c] *= A[c][x[other]]
    numer = [b_per_vertex[v][c] * prod[c] for c in range(q)]
    total = 0.0
    for w in numer:
        total += w
    cdf, cum = [], 0.0
    for w in numer:
        cum += w / total
        cdf.append(cum)
    cdf[-1] = 1.0
    return cdf


def naive_resample(edges, A_per_edge, b_per_vertex, q, x, selected, u):
    """One resampling round for one run: each selected vertex redraws its
    spin from its conditional (naive_conditional_cdf) by inverse CDF with
    its uniform u[v]."""
    new = list(x)
    for v in range(len(x)):
        if selected[v]:
            cdf = naive_conditional_cdf(edges, A_per_edge, b_per_vertex, q,
                                        v, x)
            new[v] = sum(1 for c in cdf if c <= u[v])
    return new


def naive_draw(cdf, u):
    """Inverse-CDF draw as one reduction over the spin axis: the count of
    cdf entries at or below u, row by row."""
    return (cdf <= u[..., None]).sum(axis=-1)


def naive_metropolis(edges, A_per_edge, b_per_vertex, q, x, u, coins):
    """One LocalMetropolis round for one run.

    Vertex v proposes the spin its normalized activity's inverse CDF gives
    for its uniform u[v]. Edge e, taken as (lower, higher) endpoint, passes
    when coins[e] is below the product of three normalized activities:
    both proposals, the lower endpoint's current spin against the higher's
    proposal, and the lower's proposal against the higher's current spin.
    A vertex commits its proposal when every incident edge passed.
    """
    n = len(x)
    sigma = []
    for v in range(n):
        total = 0.0
        for w in b_per_vertex[v]:
            total += w
        cdf, cum = [], 0.0
        for w in b_per_vertex[v]:
            cum += w / total
            cdf.append(cum)
        cdf[-1] = 1.0
        sigma.append(sum(1 for c in cdf if c <= u[v]))
    ok = [True] * n
    for (a, b), A, coin in zip(edges, A_per_edge, coins):
        a, b = min(a, b), max(a, b)
        top = max(max(row) for row in A)
        p = A[sigma[a]][sigma[b]] / top * (A[x[a]][sigma[b]] / top)
        p *= A[sigma[a]][x[b]] / top
        if not coin < p:
            ok[a] = ok[b] = False
    return [sigma[v] if ok[v] else x[v] for v in range(n)]


def naive_greedy(edges, A_per_edge, b_per_vertex, q):
    """The greedy start, vertex by vertex: the smallest spin of positive
    activity that every edge to an already-assigned vertex allows. Returns
    the configuration as a list, or the vertex (an int) where no spin is
    left."""
    x = [None] * len(b_per_vertex)
    for v in range(len(x)):
        others = [(b if a == v else a, A) for (a, b), A in zip(edges, A_per_edge)
                  if v in (a, b)]
        for c in range(q):
            if b_per_vertex[v][c] > 0 and all(
                    A[c][x[u]] > 0 for u, A in others if x[u] is not None):
                x[v] = c
                break
        else:
            return v
    return x
