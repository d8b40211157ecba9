import hashlib

import pytest

from conftest import SOLVERS, scalar_gen_er_rooted
from dmst import (Infeasible, brute_force, gen_antilemon, gen_er_rooted,
                  ggst_solve, is_arborescence, naive_edmonds, serialize,
                  tarjan_solve)
from dmst.graph import LANES


def test_antilemon_k3_shape():
    g = gen_antilemon(3)
    assert g.n == 4 and g.root == 3 and len(g.edges) == 5
    assert [(e.origin, e.target, e.weight) for e in g.edges] == [
        (0, 1, 0), (1, 2, 0),            # chain
        (1, 0, 1), (2, 0, 2),            # back edges
        (3, 0, 3),                       # root edge
    ]
    assert [e.id for e in g.edges] == list(range(5))


def test_antilemon_rejects_small_k():
    for k in (-1, 0, 2):
        with pytest.raises(ValueError):
            gen_antilemon(k)
    gen_antilemon(3)


def test_antilemon_k4_cross_solver():
    g = gen_antilemon(4)
    w = ggst_solve(g).total_weight
    assert w == tarjan_solve(g, "sil").total_weight
    assert w == naive_edmonds(g) == 4


def test_antilemon_contraction_count():
    g = gen_antilemon(100)
    for solve in (lambda x: tarjan_solve(x, "sil"), ggst_solve):
        r = solve(g)
        assert r.counters["contractions"] >= 98
        assert r.total_weight == 100


def test_antilemon_all_solvers_agree_small_range():
    for k in range(3, 51):
        g = gen_antilemon(k)
        weights = {name: s(g).total_weight for name, s in SOLVERS.items()}
        assert set(weights.values()) == {k}, k
        if k <= 10:
            assert naive_edmonds(g) == k


def test_er_rooted_empty():
    g = gen_er_rooted(1, 0, 10, 5)
    assert g.n == 1 and g.root == 0 and g.edges == ()


def test_er_rooted_param_guards():
    with pytest.raises(ValueError):
        gen_er_rooted(5, 3, 10, 1)   # m < n-1
    with pytest.raises(ValueError):
        gen_er_rooted(5, 5, 0, 1)    # max_w < 1
    with pytest.raises(ValueError):
        gen_er_rooted(0, 0, 10, 1)


def test_er_rooted_deterministic():
    a = gen_er_rooted(50, 180, 40, 123)
    b = gen_er_rooted(50, 180, 40, 123)
    assert a == b
    c = gen_er_rooted(50, 180, 40, 124)
    assert c != a


def test_er_rooted_known_answers():
    # pinned instances: the shuffle, the edges and the weight column must
    # not drift, whichever way the generator draws them
    g = gen_er_rooted(6, 12, 9, 3)
    assert g.org == [0, 3, 0, 5, 5, 0, 3, 1, 0, 1, 1, 0]
    assert g.tgt == [3, 5, 1, 2, 4, 0, 4, 4, 4, 2, 2, 3]
    assert g.w == [5, 9, 3, 5, 3, 2, 9, 7, 1, 7, 9, 8]
    text = serialize(gen_er_rooted(500, 2000, 1000, 9))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c57382a59ce072b6895ee99bb5a1fdf1b778de2ad9055609abc09f7bcaf519ee")


@pytest.mark.parametrize("n,m,max_w,seed", [
    (1, 0, 5, 1), (1, 3, 5, 2), (2, 1, 1, 3), (7, 6, 9, 2**64 + 5),
    (LANES + 2, LANES + 1, 100, 4), (LANES + 3, 3 * LANES, 2**70, 5),
    (300, 300 + LANES, 1000, 6), (300, 300 + LANES - 1, 2, 7),
    (2000, 8000, 1000, 3)])
def test_er_rooted_matches_scalar_draws(n, m, max_w, seed):
    # the shuffle, the tree parents, the extra edges' endpoints and the
    # weights, drawn by the lane kernel, equal one below call per draw;
    # the sizes put the draw counts on and beside block edges
    assert gen_er_rooted(n, m, max_w, seed) == scalar_gen_er_rooted(
        n, m, max_w, seed)


def test_er_rooted_shape_and_weights():
    g = gen_er_rooted(30, 100, 7, 9)
    assert g.n == 30 and g.root == 0 and len(g.edges) == 100
    assert all(1 <= e.weight <= 7 for e in g.edges)
    assert all(0 <= e.origin < 30 and 0 <= e.target < 30 for e in g.edges)


def test_er_rooted_always_feasible():
    for seed in range(200):
        n = 1 + seed % 12
        g = gen_er_rooted(n, n - 1 + (seed % 7), 20, seed)
        r = ggst_solve(g)   # raises Infeasible on failure
        assert r.total_weight >= n - 1  # weights are >= 1
        if n <= 8:
            assert brute_force(g)[0] == r.total_weight


def test_er_rooted_backbone_is_spanning():
    # with m = n-1 the instance is exactly the random arborescence
    g = gen_er_rooted(40, 39, 5, 77)
    assert is_arborescence(g, [e.id for e in g.edges])
