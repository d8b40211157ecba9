import random

import pytest

from conftest import random_instance
from dmst import Graph, Infeasible, brute_force, naive_edmonds


def test_single_vertex(g_one):
    assert brute_force(g_one) == (0, frozenset())
    assert naive_edmonds(g_one) == 0


def test_tri_unique_optimum(g_tri):
    assert brute_force(g_tri) == (6, frozenset({0, 2}))
    assert naive_edmonds(g_tri) == 6


def test_cyc_both_optima_weigh_11(g_cyc):
    w, ids = brute_force(g_cyc)
    assert w == 11
    assert ids in (frozenset({0, 2}), frozenset({1, 3}))
    assert naive_edmonds(g_cyc) == 11


def test_infeasible(g_bad):
    with pytest.raises(Infeasible):
        brute_force(g_bad)
    with pytest.raises(Infeasible):
        naive_edmonds(g_bad)


def test_brute_guard():
    with pytest.raises(ValueError):
        brute_force(Graph(13, 0, [], [], []))


def test_root_is_never_entered():
    # a tempting negative edge into the root must not be picked
    g = Graph(2, 0, [1, 0], [0, 1], [-100, 4])
    assert brute_force(g) == (4, frozenset({1}))
    assert naive_edmonds(g) == 4


def test_oracles_agree_on_random_instances():
    rng = random.Random(1729)
    hits = 0
    for _ in range(1000):
        g = random_instance(rng)
        try:
            want, ids = brute_force(g)
        except Infeasible:
            want = None
        try:
            got = naive_edmonds(g)
        except Infeasible:
            got = None
        assert got == want
        if want is not None:
            hits += 1
            assert sum(g.w[e] for e in ids) == want
            assert len(ids) == g.n - 1
    assert hits > 300  # sanity: the sweep actually exercises feasible cases
