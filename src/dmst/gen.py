"""Instance generators: a worst-case nested-cycle family and rooted
Erdos-Renyi-style random instances."""

from __future__ import annotations

from .graph import Graph, SplitMix64


def gen_antilemon(k: int) -> Graph:
    """Nested-contraction worst case on n = k+1 vertices, root k.

    A zero-weight chain 0 -> 1 -> ... -> k-1, a back edge (i -> 0, weight i)
    for every chain vertex i >= 1, and one root edge (k -> 0, weight k).
    Solving contracts {0,1}, then {0..2}, ... up to {0..k-1}: about k-1
    nested cycles, so any strategy that rescans a blob's incoming-edge list
    per merge touches Theta(k^2) entries while m = 2k-1 stays linear.
    Optimum weight is exactly k.
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    return Graph(k + 1, k,
                 [*range(k - 1), *range(1, k), k],
                 [*range(1, k), *[0] * k],
                 [*[0] * (k - 1), *range(1, k), k])


def gen_er_rooted(n: int, m: int, max_w: int, seed: int) -> Graph:
    """Feasible random instance: root 0, a random spanning arborescence
    from the root (vertex at shuffle rank j gets an edge from a uniform
    smaller rank), m-(n-1) extra uniform edges, weights uniform in
    [1, max_w]. Fully determined by the seed.

    Each draw is ``rng.below(b)`` for its bound b, in this order: the
    shuffle's, the tree parents', each extra edge's origin then target,
    then the weights. They are taken from the lane kernel's raw outputs
    as ``z % b``, which is what ``below`` returns."""
    if n < 1:
        raise ValueError("n must be positive")
    if m < n - 1:
        raise ValueError("m must be at least n-1")
    if max_w < 1:
        raise ValueError("max_w must be at least 1")
    rng = SplitMix64(seed)
    ranked = list(range(1, n))
    for i, z in zip(range(n - 2, 0, -1), rng._raw(max(n - 2, 0))):
        j = z % (i + 1)
        ranked[i], ranked[j] = ranked[j], ranked[i]
    order = [0] + ranked
    org = [order[z % j] for j, z in zip(range(1, n), rng._raw(n - 1))]
    tgt = ranked
    ends = [z % n for z in rng._raw(2 * (m - (n - 1)))]
    org += ends[0::2]
    tgt += ends[1::2]
    return Graph(n, 0, org, tgt, rng.uniform(m, 1, max_w))
