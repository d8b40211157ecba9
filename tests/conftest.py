import random

import pytest

from dmst import Graph, ParseError, ggst_solve, parse_edge_list, tarjan_solve

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


def parse_outcome(parse, text: str):
    """The parsed graph, or the ParseError's message."""
    try:
        return parse(text)
    except ParseError as e:
        return str(e)
