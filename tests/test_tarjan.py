import random
import tracemalloc
from dataclasses import replace

import pytest

from conftest import SOLVERS, random_instance
from dmst import (Graph, Infeasible, MatrixQueue, brute_force, gen_antilemon,
                  gen_er_rooted, naive_edmonds, parse_edge_list, tarjan_solve)
from dmst.graph import W_LIMIT
from test_ggst import _digest

STRATEGIES = ("matrix", "heap", "sil")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_single_vertex(g_one, strategy):
    r = tarjan_solve(g_one, strategy)
    assert r.total_weight == 0 and r.picked == []


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_tri(g_tri, strategy):
    r = tarjan_solve(g_tri, strategy, debug=True)
    assert r.total_weight == 6
    # deterministic trace: v2 picks e2, v1 closes the cycle with e3,
    # the merged blob then takes e0
    assert r.picked == [2, 3, 0]
    assert r.forest_parent == [2, 2, -1]
    assert r.counters["contractions"] == 1
    assert r.counters["summed_cycle_length"] == 2


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_cyc(g_cyc, strategy):
    r = tarjan_solve(g_cyc, strategy, debug=True)
    assert r.total_weight == 11
    assert 0 in r.picked and 1 in r.picked  # both weight-1 cycle edges
    assert sum(1 for e in r.picked if g_cyc.w[e] == 10) == 1


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_infeasible(g_bad, strategy):
    with pytest.raises(Infeasible):
        tarjan_solve(g_bad, strategy)


def test_unknown_strategy_rejected(g_one):
    with pytest.raises(ValueError, match="unknown strategy"):
        tarjan_solve(g_one, "treap")


def test_self_loops_and_root_edges_ignored():
    g = Graph(2, 0, [1, 1, 0], [1, 0, 1], [-50, -50, 3])
    for strategy in STRATEGIES:
        assert tarjan_solve(g, strategy).total_weight == 3


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_oracle_sweep(strategy):
    rng = random.Random(4000 + len(strategy))
    for _ in range(1000):
        g = random_instance(rng)
        try:
            want, _ = brute_force(g)
        except Infeasible:
            want = None
        try:
            r = tarjan_solve(g, strategy, debug=True)
            got = r.total_weight
        except Infeasible:
            r, got = None, None
        assert got == want
        if r is not None:
            n = g.n
            assert r.counters["contractions"] <= max(0, n - 1)
            assert r.counters["summed_cycle_length"] < 2 * n
            assert len(r.picked) <= 2 * n - 1
            # forest parents only point forward
            for i, p in enumerate(r.forest_parent):
                assert p == -1 or p > i


def test_forest_parent_points_to_cycle_closer(g_tri):
    r = tarjan_solve(g_tri, "sil")
    # picks 0 and 1 belong to the contracted cycle, replaced by pick 2
    assert r.forest_parent == [2, 2, -1]


def test_weight_shift_covariance():
    rng = random.Random(88)
    done = 0
    while done < 40:
        g = random_instance(rng)
        if g.n < 2:
            continue
        try:
            base = tarjan_solve(g, "sil").total_weight
        except Infeasible:
            continue
        v = rng.choice([x for x in range(g.n) if x != g.root])
        for delta in (-7, 3):
            shifted = replace(g, w=[
                x + (delta if t == v else 0) for t, x in zip(g.tgt, g.w)])
            for solve in SOLVERS.values():
                assert solve(shifted).total_weight == base + delta
        done += 1


# the cycle 1 -> 2 -> 3 -> 1 at -W_LIMIT, entered from the root at +W_LIMIT
_EXTREME_TEXT = (f"4 7 0\n0 1 {W_LIMIT}\n0 2 {W_LIMIT}\n1 2 -{W_LIMIT}\n"
                 f"2 3 -{W_LIMIT}\n3 1 -{W_LIMIT}\n2 1 {W_LIMIT}\n"
                 f"3 2 {W_LIMIT - 1}\n")


def test_weights_at_the_parse_limit_agree_with_naive_edmonds():
    graphs = [parse_edge_list(_EXTREME_TEXT)]
    rng = random.Random(2**32)
    for _ in range(200):
        g = random_instance(rng, 8, 24)
        graphs.append(replace(g, w=[rng.choice(
            (-W_LIMIT, -W_LIMIT + 1, 0, W_LIMIT - 1, W_LIMIT)) for _ in g.w]))
    for g in graphs:
        try:
            want = naive_edmonds(g)
        except Infeasible:
            want = None
        for solve in SOLVERS.values():
            try:
                got = solve(g, debug=True).total_weight
            except Infeasible:
                got = None
            assert got == want
    assert naive_edmonds(graphs[0]) == -W_LIMIT


def test_matrix_key_bound_holds_at_its_edge():
    # weights up to the largest W with (2W(n + 1) + 1) * m <= 2**63 - 1:
    # the matrix's int64 rows must never overflow and must agree with sil;
    # one weight beyond it is refused before a row is allocated
    rng = random.Random(63)
    for _ in range(300):
        g = random_instance(rng, 9, 30)
        if not g.w:
            continue
        n, m = g.n, len(g.w)
        big = ((2**63 - 1) // m - 1) // (2 * (n + 1))
        g = replace(g, w=[rng.choice((-big, -big + 1, 0, big - 1, big))
                          for _ in g.w])
        try:
            want = tarjan_solve(g, "sil").total_weight
        except Infeasible:
            want = None
        try:
            got = tarjan_solve(g, "matrix").total_weight
        except Infeasible:
            got = None
        assert got == want
        with pytest.raises(ValueError, match="64 bits"):
            MatrixQueue(replace(g, w=[big + 1] + g.w[1:]), list(range(n)))


def test_matrix_key_refusal_allocates_no_row():
    # n = 2000 rows of 8n bytes would take 32 MB; the refusal comes first
    n = 2000
    big = ((2**63 - 1) // 3 - 1) // (2 * (n + 1))
    g = Graph(n, 0, [0, 1, 0], [1, 2, 2], [1, big + 1, -5])
    rep = list(range(n))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="64 bits"):
            MatrixQueue(g, rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_counters_expose_strategy_specific_work():
    from dmst import parse_edge_list
    common = {"picks", "contractions", "summed_cycle_length", "dsu_visits"}
    own = {"tarjan-sil": {"queue_moves", "list_merge_scan"},
           "tarjan-heap": {"melds"},
           "tarjan-matrix": {"cells_scanned"},
           "ggst": {"af_queries", "af_deletes", "af_merges", "af_roots",
                    "af_splices", "head_scans"}}
    # the key set does not depend on the instance, even one with no work
    for g in (gen_er_rooted(8, 16, 20, 17), parse_edge_list("1 0 0\n")):
        for config, solve in SOLVERS.items():
            r = solve(g)
            assert set(r.counters) == common | own[config], (g.n, config)
            assert (r.counters["dsu_visits"] > 0) == (g.n > 1)


_ANTILEMON = (300, "2afbb83db7a4fb5b", "6c7f3a3cc05a44c8",
              {"picks": 599, "contractions": 299, "summed_cycle_length": 598,
               "dsu_visits": 599})
_ER = (47397, "94ff51d64930d764", "5312a5222b941d74",
       {"picks": 2008, "contractions": 9, "summed_cycle_length": 158,
        "dsu_visits": 6552})


@pytest.mark.parametrize("make, strategy, want, own", [
    (lambda: gen_antilemon(300), "matrix", _ANTILEMON,
     {"cells_scanned": 45449}),
    (lambda: gen_antilemon(300), "heap", _ANTILEMON, {"melds": 299}),
    (lambda: gen_antilemon(300), "sil", _ANTILEMON,
     {"queue_moves": 0, "list_merge_scan": 44850}),
    (lambda: gen_er_rooted(2000, 8000, 100, 11), "matrix", _ER,
     {"cells_scanned": 10060}),
    (lambda: gen_er_rooted(2000, 8000, 100, 11), "heap", _ER, {"melds": 149}),
    (lambda: gen_er_rooted(2000, 8000, 100, 11), "sil", _ER,
     {"queue_moves": 597, "list_merge_scan": 17769}),
], ids=["antilemon-300-matrix", "antilemon-300-heap", "antilemon-300-sil",
        "er-2000-8000-matrix", "er-2000-8000-heap", "er-2000-8000-sil"])
def test_golden_trace_and_counters(make, strategy, want, own):
    # the trace and every counter on two fixed instances: a change to the
    # queues must pick the same edges in the same order and do the same work
    weight, picked, parents, common = want
    g = make()
    for debug in (False, True):
        r = tarjan_solve(g, strategy, debug=debug)
        assert r.total_weight == weight
        assert _digest(r.picked) == picked
        assert _digest(r.forest_parent) == parents
        assert r.counters == {**common, **own}
