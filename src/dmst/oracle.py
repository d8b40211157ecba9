"""Reference solvers for verification at desk scale.

Two deliberately independent methods: an exhaustive search over incoming-edge
choices and a literal rebuild-the-graph Edmonds. The fast solvers are only
trusted where these two agree with each other first.
"""

from __future__ import annotations

from itertools import product

from .errors import Infeasible
from .graph import Graph

BRUTE_MAX_N = 12


def brute_force(graph: Graph) -> tuple[int, frozenset[int]]:
    """Minimum arborescence by enumerating one incoming edge per non-root
    vertex; complexity is the product of in-degrees, hence the n guard.

    Returns (weight, edge id set) or raises Infeasible.
    """
    n, root = graph.n, graph.root
    if n > BRUTE_MAX_N:
        raise ValueError(f"brute_force is limited to n <= {BRUTE_MAX_N}")
    org, w = graph.org, graph.w
    choices: list[list[int]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(zip(org, graph.tgt)):
        if v != root and u != v:
            choices[v].append(eid)
    slots = [choices[v] for v in range(n) if v != root]
    verts = [v for v in range(n) if v != root]
    if any(not c for c in slots):
        raise Infeasible

    best_weight = None
    best_ids: tuple[int, ...] = ()
    par = [0] * n
    ok = [0] * n
    seen = [0] * n
    stamp = 0
    for combo in product(*slots):
        stamp += 1
        for v, eid in zip(verts, combo):
            par[v] = org[eid]
        valid = True
        for v0 in verts:
            if ok[v0] == stamp:
                continue
            v = v0
            trail = []
            while v != root and ok[v] != stamp:
                if seen[v] == stamp:
                    valid = False
                    break
                seen[v] = stamp
                trail.append(v)
                v = par[v]
            if not valid:
                break
            for u in trail:
                ok[u] = stamp
        if not valid:
            continue
        weight = sum(w[eid] for eid in combo)
        if best_weight is None or weight < best_weight:
            best_weight = weight
            best_ids = combo
    if best_weight is None:
        raise Infeasible
    return best_weight, frozenset(best_ids)


def naive_edmonds(graph: Graph) -> int:
    """Literal Edmonds with explicit graph rebuilding per contraction round:
    pick the cheapest incoming edge of every vertex; if the picks are
    acyclic their sum (plus banked cycle costs) is the answer, otherwise
    contract every pick-cycle, reduce the weights of edges entering a cycle
    by the target's pick cost, and repeat on the rebuilt graph."""
    n, root = graph.n, graph.root
    edges = list(zip(graph.org, graph.tgt, graph.w))
    total = 0
    while True:
        pick: list = [None] * n
        for u, v, wt in edges:
            if v == root or u == v:
                continue
            p = pick[v]
            if p is None or wt < p[0]:
                pick[v] = (wt, u)
        for v in range(n):
            if v != root and pick[v] is None:
                raise Infeasible
        # cycles of the pick functional graph
        state = [0] * n  # 0 new, 1 on current trail, 2 done
        state[root] = 2
        cycles = []
        for v0 in range(n):
            if state[v0]:
                continue
            trail = []
            v = v0
            while state[v] == 0:
                state[v] = 1
                trail.append(v)
                v = pick[v][1]
            if state[v] == 1:
                cycles.append(trail[trail.index(v):])
            for u in trail:
                state[u] = 2
        if not cycles:
            return total + sum(pick[v][0] for v in range(n) if v != root)
        comp = list(range(n))
        in_cycle = [False] * n
        for cyc in cycles:
            rep = cyc[0]
            for v in cyc:
                comp[v] = rep
                in_cycle[v] = True
                total += pick[v][0]
        # densify new ids
        remap: dict[int, int] = {}
        for v in range(n):
            r = comp[v]
            if r not in remap:
                remap[r] = len(remap)
        new_edges = []
        for u, v, wt in edges:
            cu, cv = remap[comp[u]], remap[comp[v]]
            if cu == cv:
                continue
            if in_cycle[v]:
                wt -= pick[v][0]
            new_edges.append((cu, cv, wt))
        root = remap[comp[root]]
        n = len(remap)
        edges = new_edges
