import random
from unittest import mock

import pytest

from dmst import (GgstSolver, Graph, Infeasible, ParseError, SplitMix64,
                  ggst_solve, parse_edge_list, parse_plain_edge_list,
                  tarjan_solve)
from dmst import graph as graph_mod
from dmst.recon import _TICK_MASK, PickLog

G_ONE_TEXT = "1 0 0\n"
G_TRI_TEXT = "3 4 0\n0 1 5\n0 2 7\n1 2 1\n2 1 1\n"
G_CYC_TEXT = "3 4 0\n1 2 1\n2 1 1\n0 1 10\n0 2 10\n"
G_BAD_TEXT = "2 0 0\n"

# every solver configuration under one name -> callable map
SOLVERS = {
    "tarjan-matrix": lambda g, **kw: tarjan_solve(g, "matrix", **kw),
    "tarjan-heap": lambda g, **kw: tarjan_solve(g, "heap", **kw),
    "tarjan-sil": lambda g, **kw: tarjan_solve(g, "sil", **kw),
    "ggst": lambda g, **kw: ggst_solve(g, **kw),
}


@pytest.fixture
def g_one():
    return parse_edge_list(G_ONE_TEXT)


@pytest.fixture
def g_tri():
    return parse_edge_list(G_TRI_TEXT)


@pytest.fixture
def g_cyc():
    return parse_edge_list(G_CYC_TEXT)


@pytest.fixture
def g_bad():
    return parse_edge_list(G_BAD_TEXT)


def random_instance(rng: random.Random, max_n: int = 8, max_m: int = 20,
                    w_lo: int = -20, w_hi: int = 20) -> Graph:
    """Arbitrary small instance; may be infeasible, may have self-loops,
    parallels, negative weights."""
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m)
    org, tgt, w = [], [], []
    for _ in range(m):
        org.append(rng.randrange(n))
        tgt.append(rng.randrange(n))
        w.append(rng.randint(w_lo, w_hi))
    return Graph(n, rng.randrange(n), org, tgt, w)


def _line_by_line(parse, text: str) -> Graph:
    with mock.patch.object(graph_mod, "_columns", lambda *args: False):
        return parse(text)


def parse_line_by_line(text: str) -> Graph:
    """``parse_edge_list`` with every block refused by its columnar reader,
    so every edge line is read on its own: the reference the block reading
    must match."""
    return _line_by_line(parse_edge_list, text)


def parse_plain_line_by_line(text: str) -> Graph:
    """``parse_plain_edge_list`` with every block refused the same way: the
    reference for its block reading."""
    return _line_by_line(parse_plain_edge_list, text)


def parse_outcome(parse, text: str):
    """The parsed graph, or the ParseError's message."""
    try:
        return parse(text)
    except ParseError as e:
        return str(e)


def scalar_gen_er_rooted(n: int, m: int, max_w: int, seed: int) -> Graph:
    """gen_er_rooted with every draw a ``below`` call, one at a time: the
    reference for the lane kernel's draws."""
    rng = SplitMix64(seed)
    ranked = list(range(1, n))
    for i in range(len(ranked) - 1, 0, -1):
        j = rng.below(i + 1)
        ranked[i], ranked[j] = ranked[j], ranked[i]
    order = [0] + ranked
    org = [order[rng.below(j)] for j in range(1, n)]
    tgt = ranked
    for _ in range(m - (n - 1)):
        org.append(rng.below(n))
        tgt.append(rng.below(n))
    return Graph(n, 0, org, tgt, [1 + rng.below(max_w) for _ in range(m)])


def scan_min(cdsu, tgt: list[int], w: list[int], eids, head: int):
    """The smallest ``(current cost, edge id)`` among the edge ids in eids
    whose target's representative is head, as ``(edge id, cost)``, or None:
    what the active forest's query_min must answer, found by a scan. Entries
    below 0 stand for no edge."""
    best = None
    for e in eids:
        if e >= 0 and cdsu.find(tgt[e]) == head:
            key = (w[e] + cdsu.offset(tgt[e]), e)
            if best is None or key < best:
                best = key
    return None if best is None else best[::-1]


# the active forest's counters that count work on the shapes of its
# heaps, which a ScanForest does not have
SHAPE_COUNTERS = ("af_roots", "af_splices")


def shape_free(counters: dict[str, int]) -> dict[str, int]:
    return {k: v for k, v in counters.items() if k not in SHAPE_COUNTERS}


class ScanForest:
    """ggst's ActiveForest reduced to its front list: query_min scans every
    front for one into the head. The solver's picks must not depend on how
    the forest orders its heaps, so ``scan_ggst`` must give the same picks,
    forest parents and shape-free counters as ``ggst_solve``."""

    def __init__(self, cdsu, org: list[int], tgt: list[int], w: list[int]):
        self.cdsu, self.org, self.tgt, self.w = cdsu, org, tgt, w
        self.eid = [-1] * len(cdsu.parent)
        self.queries = self.deletes = self.merges = 0

    def counters(self) -> dict[str, int]:
        return {"af_queries": self.queries, "af_deletes": self.deletes,
                "af_merges": self.merges}

    def _key(self, e: int):
        return self.w[e] + self.cdsu.offset(self.tgt[e]), e

    def fill(self, home: int, edges, passive) -> None:
        """ActiveForest.fill's fronts and demotions, one edge at a time,
        each kept or replaced by its current (cost, edge id)."""
        find, front = self.cdsu.find, self.eid
        for e in edges:
            x = find(self.org[e])
            if x == home:
                continue
            f = front[x]
            if f >= 0:
                t = find(self.tgt[f])
                if t == home:
                    if self._key(f) < self._key(e):
                        continue
                elif t in passive:
                    passive[t].append(f)
            front[x] = e

    def delete(self, origin: int) -> None:
        if self.eid[origin] < 0:
            raise ValueError(f"origin {origin} has no active edge")
        self.eid[origin] = -1
        self.deletes += 1

    def merge(self, members: list[int], merged: int) -> None:
        self.merges += len(members) - 1

    def query_min(self, head: int):
        self.queries += 1
        return scan_min(self.cdsu, self.tgt, self.w, self.eid, head)

    def check_invariants(self, path_index) -> None:
        pass


def scan_ggst(graph: Graph):
    """ggst's solve with its active forest replaced by a ScanForest."""
    solver = GgstSolver(graph)
    solver.af = ScanForest(solver.cdsu, graph.org, graph.tgt, graph.w)
    return solver.run()


def eager_ggst(graph: Graph, debug: bool = False):
    """ggst as it ran before lazy activation: every new path head's
    incoming edges are filed through ``fill`` when it joins the path, and
    every pick is a forest query. The solver's lazy filing must give the
    same picks, forest parents and weight; its counters differ."""
    solver = GgstSolver(graph, debug=debug)
    n = graph.n
    cdsu, af, log = solver.cdsu, solver.af, PickLog(n, None)
    picked, costs, pick_for = log.picked, log.costs, log.pick_for
    parent, shift, front = cdsu.parent, cdsu.shift, af.eid
    org = graph.org
    in_adj, passive, covered = solver.in_adj, solver.passive, solver.covered
    path: list[int] = []
    path_index = [-1] * n
    next_start = 0

    def extend(u: int) -> None:
        path.append(u)
        path_index[u] = len(path) - 1
        passive[u] = []
        af.fill(u, in_adj[u], passive)

    while True:
        if not path:
            while next_start < n and covered[parent[next_start]]:
                next_start += 1
            if next_start == n:
                break
            extend(next_start)
            continue
        if debug:
            solver._debug_check(path, path_index)
        head = path[-1]
        res = af.query_min(head)
        if res is None:
            raise Infeasible
        eid, cost = res
        i = len(picked)
        if not i & _TICK_MASK:
            log.poll()
        if debug:
            log.check_head(head)
        picked.append(eid)
        costs.append(cost)
        log.forest_parent.append(-1)
        pick_for[head] = i
        u = parent[org[eid]]
        j = path_index[u]
        if j >= 0:
            members = path[j:]
            del path[j:]
            nxt = i + 1
            for r in members:
                path_index[r] = -1
                p = pick_for[r]
                log.forest_parent[p] = nxt
                shift[r] -= costs[p]
                if front[r] >= 0:
                    af.delete(r)
            merged = cdsu.join(members)
            af.merge(members, merged)
            entries = []
            for r in reversed(members):
                entries += passive.pop(r)
            af.fill(merged, entries, passive)
            passive[merged] = []
            if debug:
                log.next_head = merged
            path.append(merged)
            path_index[merged] = len(path) - 1
        elif not covered[u]:
            extend(u)
        else:
            for r in path:
                covered[r] = 1
                del passive[r]
                path_index[r] = -1
            path.clear()
    return log.result({**af.counters(), **cdsu.counters()})
