"""Slow reference implementations used as independent oracles in tests.

Everything here recomputes quantities from first principles with plain
Python loops, deliberately sharing no code path with the package;
edge_pairs only reads a graph's edge arrays, as the loops take them.
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


def naive_proposal_cdf(b):
    """The CDF of one vertex's normalized activity vector b, summed in spin
    order. The last entry is forced to exactly 1.0."""
    total = 0.0
    for w in b:
        total += w
    cdf, cum = [], 0.0
    for w in b:
        cum += w / total
        cdf.append(cum)
    cdf[-1] = 1.0
    return cdf


def naive_metropolis(edges, A_per_edge, b_per_vertex, q, x, u, coins):
    """One LocalMetropolis round for one run.

    Vertex v proposes the spin its normalized activity's inverse CDF
    (naive_proposal_cdf) gives for its uniform u[v]. Edge e passes when
    coins[e] is below its pass probability (naive_pass_probability). A
    vertex commits its proposal when every incident edge passed.
    """
    n = len(x)
    sigma = []
    for v in range(n):
        cdf = naive_proposal_cdf(b_per_vertex[v])
        sigma.append(sum(1 for c in cdf if c <= u[v]))
    ok = [True] * n
    for (a, b), A, coin in zip(edges, A_per_edge, coins):
        if not coin < naive_pass_probability(a, b, A, x, sigma):
            ok[a] = ok[b] = False
    return [sigma[v] if ok[v] else x[v] for v in range(n)]


def naive_pass_probability(a, b, A, x, sigma):
    """LocalMetropolis's pass probability of edge (a, b) with matrix A, from
    the current spins x and the proposals sigma. Taking the edge as (lower,
    higher) endpoint, it is the product of three normalized activities:
    both proposals, the lower endpoint's current spin against the higher's
    proposal, and the lower's proposal against the higher's current spin."""
    a, b = min(a, b), max(a, b)
    top = max(max(row) for row in A)
    p = A[sigma[a]][sigma[b]] / top * (A[x[a]][sigma[b]] / top)
    p *= A[sigma[a]][x[b]] / top
    return p


def naive_transition_matrix(edges, A_per_edge, b_per_vertex, n, q, kind):
    """The one-round transition matrix of a chain kind, as a list of rows
    indexed in all_sigmas order; None when a resampling chain meets a
    conditional with no mass.

    "luby": every ordering of the n scores is equally likely and selects
    the set naive_local_max gives on it; "single-site": each vertex alone,
    with probability 1/n. The selected vertices redraw from their
    conditionals (naive_marginal), independently. "metropolis": a sum over
    every proposal vector (vertex v proposes c with probability b_v(c) over
    the sum of b_v) and every pattern of edge coins passing or failing
    (naive_pass_probability); a vertex commits its proposal when all of its
    edges passed.
    """
    states = list(all_sigmas(n, q))
    index = {s: i for i, s in enumerate(states)}
    P = [[0.0] * len(states) for _ in states]
    if kind == "metropolis":
        for x in states:
            for sigma in states:
                pr = 1.0
                for v in range(n):
                    pr *= b_per_vertex[v][sigma[v]] / sum(b_per_vertex[v])
                patterns = [(pr, ())]
                for (a, b), A in zip(edges, A_per_edge):
                    p = naive_pass_probability(a, b, A, x, sigma)
                    patterns = [(w * f, bits + (bit,)) for w, bits in patterns
                                for bit, f in ((True, p), (False, 1 - p))
                                if f > 0]
                for w, bits in patterns:
                    ok = [True] * n
                    for (a, b), passed in zip(edges, bits):
                        if not passed:
                            ok[a] = ok[b] = False
                    y = tuple(sigma[v] if ok[v] else x[v] for v in range(n))
                    P[index[x]][index[y]] += w
        return P
    if kind == "luby":
        orders = list(itertools.permutations(range(n)))
        sets = []
        for order in orders:
            keys = [0] * n
            for rank, v in enumerate(order):
                keys[v] = n - rank  # order lists vertices by falling score
            sel = naive_local_max(edges, n, keys)
            sets.append(([v for v in range(n) if sel[v]], 1 / len(orders)))
    else:
        sets = [([v], 1 / n) for v in range(n)]
    for x in states:
        margs = [naive_marginal(edges, A_per_edge, b_per_vertex, q, v, x)
                 for v in range(n)]
        if None in margs:
            return None
        for sel, pr in sets:
            for y in states:
                if all(y[v] == x[v] for v in range(n) if v not in sel):
                    w = pr
                    for v in sel:
                        w *= margs[v][y[v]]
                    P[index[x]][index[y]] += w
    return P


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


def edge_pairs(graph):
    """A graph's edges as (u, v) pairs with u < v, in edge index order."""
    return list(zip(graph.eu.tolist(), graph.ev.tolist()))


def naive_rank(sigma, q):
    """Little-endian rank of a configuration: sum of sigma[v] * q**v."""
    return sum(int(s) * q ** v for v, s in enumerate(sigma))


def naive_graph_arrays(n, edges):
    """Every index array of a Graph, edge by edge and vertex by vertex.

    Returns a dict keyed by the Graph attribute names. A vertex's slots
    list its edges in edge order; emult counts the earlier copies of the
    same unordered pair; by_degree sorts by (-degree, id), and rank k lists
    the k-th slot of every vertex of degree > k in by_degree order.
    """
    adj = [[] for _ in range(n)]
    inc = [[] for _ in range(n)]
    seen = {}
    eu, ev, emult = [], [], []
    for e, (u, v) in enumerate(edges):
        adj[u].append(v)
        adj[v].append(u)
        inc[u].append(e)
        inc[v].append(e)
        a, b = min(u, v), max(u, v)
        eu.append(a)
        ev.append(b)
        emult.append(seen.get((a, b), 0))
        seen[a, b] = emult[-1] + 1
    degrees = [len(a) for a in adj]
    nbr_ptr = [0]
    for d in degrees:
        nbr_ptr.append(nbr_ptr[-1] + d)
    by_degree = sorted(range(n), key=lambda v: (-degrees[v], v))
    degree_pos = [0] * n
    for p, v in enumerate(by_degree):
        degree_pos[v] = p
    rank_ptr, rank_nbr, rank_edge = [0], [], []
    for k in range(max(degrees)):
        for v in by_degree:
            if degrees[v] > k:
                rank_nbr.append(adj[v][k])
                rank_edge.append(inc[v][k])
        rank_ptr.append(len(rank_nbr))
    return {"eu": eu, "ev": ev, "emult": emult, "degrees": degrees,
            "nbr_flat": [u for a in adj for u in a], "nbr_ptr": nbr_ptr,
            "nbr_edge": [e for i in inc for e in i], "by_degree": by_degree,
            "degree_pos": degree_pos, "rank_ptr": rank_ptr,
            "rank_nbr": rank_nbr, "rank_edge": rank_edge}


def naive_distances(n, edges, source):
    """BFS hop distances from source over an edge list; -1 where
    unreachable."""
    dist = [-1] * n
    dist[source] = 0
    queue = [source]
    for v in queue:
        for a, b in edges:
            if v in (a, b):
                u = b if a == v else a
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
    return dist
