import random
from unittest import mock

import pytest

from dmst import (GgstSolver, Graph, ParseError, ggst_solve, parse_edge_list,
                  parse_plain_edge_list, tarjan_solve)
from dmst import graph as graph_mod

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
    """``parse_edge_list`` with its columnar chunk reader refused, so every
    edge line is read on its own: the reference the chunked reading must
    match."""
    return _line_by_line(parse_edge_list, text)


def parse_plain_line_by_line(text: str) -> Graph:
    """``parse_plain_edge_list`` with the same chunk reader refused: the
    reference for its chunked reading."""
    return _line_by_line(parse_plain_edge_list, text)


def parse_outcome(parse, text: str):
    """The parsed graph, or the ParseError's message."""
    try:
        return parse(text)
    except ParseError as e:
        return str(e)


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


class ScanForest:
    """ggst's ActiveForest reduced to its front list: query_min scans every
    front for one into the head. The solver's picks must not depend on how
    the forest orders its heaps, so ``scan_ggst`` must give the same picks,
    forest parents and counters as ``ggst_solve``."""

    def __init__(self, cdsu, tgt: list[int], w: list[int]):
        self.cdsu, self.tgt, self.w = cdsu, tgt, w
        self.eid = [-1] * len(cdsu.parent)
        self.queries = self.deletes = self.merges = 0

    def counters(self) -> dict[str, int]:
        return {"af_queries": self.queries, "af_deletes": self.deletes,
                "af_merges": self.merges}

    def set_front(self, origin: int, eid: int, home: int) -> None:
        self.eid[origin] = eid

    def fill(self, home: int, in_edges, org, passive, covered) -> None:
        """ActiveForest.fill's fronts and demotions, one edge at a time."""
        find, front = self.cdsu.find, self.eid
        for e in in_edges:
            x = find(org[e])
            if x == home:
                continue
            f = front[x]
            if f >= 0:
                t = find(self.tgt[f])
                if t == home:
                    if (self.w[f], f) < (self.w[e], e):
                        continue
                elif not covered[t]:
                    passive[t].append(f)
            front[x] = e

    def delete(self, origin: int) -> None:
        if self.eid[origin] < 0:
            raise ValueError(f"origin {origin} has no active edge")
        self.eid[origin] = -1
        self.deletes += 1

    def merge_front(self, a: int, b: int) -> None:
        self.merges += 1

    def query_min(self, head: int):
        self.queries += 1
        return scan_min(self.cdsu, self.tgt, self.w, self.eid, head)

    def check_invariants(self, path_index) -> None:
        pass


def scan_ggst(graph: Graph):
    """ggst's solve with its active forest replaced by a ScanForest."""
    solver = GgstSolver(graph)
    solver.af = ScanForest(solver.cdsu, graph.tgt, graph.w)
    return solver.run()
