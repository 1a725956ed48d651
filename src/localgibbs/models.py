"""Factory constructors for the bundled interaction models."""

from __future__ import annotations

import numpy as np

from .graphs import Graph
from .mrf import MrfInstance


class EmptyList(ValueError):
    """A color list is empty; the vertex would have no admissible spin."""


def coloring(graph: Graph, q: int) -> MrfInstance:
    """Uniform distribution over proper q-colorings.

    Edge matrices are 0 on the diagonal and 1 off it; vertex activities are
    all ones, so every proper coloring has weight 1 and improper ones 0.
    """
    if q < 2:
        raise ValueError("coloring needs q >= 2")
    a = np.ones((q, q)) - np.eye(q)
    return MrfInstance(graph, q, a, np.ones(q))


def list_coloring(graph: Graph, q: int, lists) -> MrfInstance:
    """Proper colorings with per-vertex admissible color lists.

    Args:
        lists: one iterable of spins per vertex; b_v is its 0/1 indicator.

    Raises:
        EmptyList: some vertex has an empty list.
    """
    if q < 2:
        raise ValueError("list coloring needs q >= 2")
    if len(lists := list(lists)) != graph.n:
        raise ValueError(f"{len(lists)} color lists for {graph.n} vertices")
    b = np.zeros((graph.n, q))
    for v, lst in enumerate(lists):
        spins = list(lst)
        if not spins:
            raise EmptyList(f"vertex {v} has an empty color list")
        for c in spins:
            if not 0 <= c < q:
                raise ValueError(f"color {c} outside [0, {q}) at vertex {v}")
            b[v, c] = 1.0
    a = np.ones((q, q)) - np.eye(q)
    return MrfInstance(graph, q, a, b)


def hardcore(graph: Graph, lam: float) -> MrfInstance:
    """Weighted independent sets with fugacity lam; spin 1 means occupied.

    Adjacent occupied vertices are forbidden (A[1][1] = 0) and a
    configuration with k occupied vertices has weight lam**k.
    """
    if lam <= 0:
        raise ValueError("fugacity must be positive")
    a = np.array([[1.0, 1.0], [1.0, 0.0]])
    return MrfInstance(graph, 2, a, np.array([1.0, float(lam)]))


def potts(graph: Graph, q: int, beta: float) -> MrfInstance:
    """Ferromagnetic-style Potts interactions: weight beta per agreeing edge."""
    if q < 2:
        raise ValueError("potts needs q >= 2")
    if beta <= 0:
        raise ValueError("beta must be positive")
    a = np.ones((q, q)) + (float(beta) - 1.0) * np.eye(q)
    return MrfInstance(graph, q, a, np.ones(q))


def ising(graph: Graph, beta: float) -> MrfInstance:
    return potts(graph, 2, beta)
