import gc
import hashlib
import random

import pytest

from conftest import random_instance, scan_ggst
from dmst import (GgstSolver, Infeasible, brute_force, build_leaf_map,
                  gen_antilemon, gen_er_rooted, ggst_solve, is_arborescence,
                  parse_edge_list, reconstruct, tarjan_solve)


def test_single_vertex(g_one):
    r = ggst_solve(g_one, debug=True)
    assert r.total_weight == 0 and r.picked == []
    assert r.counters["af_queries"] == 0


def test_tri(g_tri):
    r = ggst_solve(g_tri, debug=True)
    assert r.total_weight == 6
    assert r.counters["contractions"] == 1
    assert r.counters["summed_cycle_length"] == 2
    ids = reconstruct(r, build_leaf_map(r, g_tri), g_tri, debug=True)
    assert sorted(ids) == [0, 2]


def test_cyc_contracts_exactly_once(g_cyc):
    r = ggst_solve(g_cyc, debug=True)
    assert r.total_weight == 11
    assert r.counters["contractions"] == 1
    assert r.counters["summed_cycle_length"] == 2
    ids = reconstruct(r, build_leaf_map(r, g_cyc), g_cyc, debug=True)
    assert is_arborescence(g_cyc, ids)
    assert sum(g_cyc.edges[e].weight for e in ids) == 11


def test_infeasible(g_bad):
    with pytest.raises(Infeasible):
        ggst_solve(g_bad)


def test_oracle_sweep_with_debug_checks():
    rng = random.Random(777)
    for _ in range(600):
        g = random_instance(rng)
        try:
            want, _ = brute_force(g)
        except Infeasible:
            want = None
        try:
            r = ggst_solve(g, debug=True)
            got = r.total_weight
        except Infeasible:
            r, got = None, None
        assert got == want
        if r is None:
            continue
        n = g.n
        assert r.counters["contractions"] <= max(0, n - 1)
        assert r.counters["summed_cycle_length"] < 2 * n
        ops = (r.counters["af_queries"] + r.counters["af_deletes"]
               + r.counters["af_merges"])
        assert ops <= 4 * n
        ids = reconstruct(r, build_leaf_map(r, g), g, debug=True)
        assert is_arborescence(g, ids)
        assert sum(g.edges[e].weight for e in ids) == want


def test_post_join_fold_matches_scan_forest():
    # both contractions fold a passive edge into the front of an origin
    # outside the merged vertex; the fold is set_front's only caller
    g = gen_er_rooted(6, 18, 2, 5)
    solver = GgstSolver(g, debug=True)
    set_front = solver.af.set_front
    folded = []

    def counting(origin, eid, home):
        folded.append(eid)
        set_front(origin, eid, home)

    solver.af.set_front = counting
    r = solver.run()
    ref = scan_ggst(g)
    assert folded == [6, 0]
    assert r.total_weight == ref.total_weight == 6
    assert r.picked == ref.picked == [3, 5, 16, 6, 13, 0, 1]
    assert r.forest_parent == ref.forest_parent
    assert r.counters == ref.counters
    assert r.counters["contractions"] == 2


@pytest.mark.parametrize("prep", ["shift", "join"])
def test_debug_check_wants_a_new_head_uncontracted_and_unshifted(prep):
    # fill reads a new head's costs as plain weights
    solver = GgstSolver(gen_er_rooted(6, 18, 2, 5), debug=True)
    cdsu = solver.cdsu
    if prep == "shift":
        cdsu.add_offset(1, 3)
    else:
        cdsu.join(1, 2)
    with pytest.raises(AssertionError, match="uncontracted singleton"):
        solver._extend(cdsu.parent[1])


def test_equal_cost_fold_keeps_the_strict_order():
    # origin 3 moves from edge 2 (into 0) to edge 5 (into the new head 1),
    # carrying its child, origin 5's edge 3 into 0; the contraction that
    # joins 0 and 1 ties edges 2 and 5 at cost 0, and the fold takes back
    # edge 2, the smaller id, which precedes the child's edge 3 as the
    # debug walk's strict (cost, edge id) check requires
    g = parse_edge_list("6 9 3\n2 0 0\n1 0 0\n3 0 0\n5 0 0\n4 1 -1\n"
                        "3 1 -1\n0 2 -1\n0 5 1\n2 4 0\n")
    r = ggst_solve(g, debug=True)
    assert r.total_weight == -1
    assert r.picked == scan_ggst(g).picked == [0, 6, 1, 4, 8, 2, 7]


def test_picks_match_scan_forest_on_a_tie():
    # a fold that kept the newest target on a cost tie left an equal-cost
    # parent with the larger edge id above its child here, and the forest
    # answered a query with that parent, not the (cost, edge id) minimum
    g = gen_er_rooted(6, 20, 2, 4371)
    r, want = ggst_solve(g, debug=True), scan_ggst(g)
    assert (r.picked, r.forest_parent, r.counters) == (
        want.picked, want.forest_parent, want.counters)


def test_tie_heavy_sweep_with_debug_checks():
    rng = random.Random(1)
    for _ in range(2000):
        g = random_instance(rng, 14, 50, -2, 2)
        try:
            want = tarjan_solve(g, "sil").total_weight
        except Infeasible:
            want = None
        try:
            got = ggst_solve(g, debug=True).total_weight
        except Infeasible:
            got = None
        assert got == want


def test_matches_tarjan_on_er_instances():
    for seed in range(60):
        g = gen_er_rooted(40, 150, 25, seed)
        assert ggst_solve(g).total_weight == tarjan_solve(g, "sil").total_weight


def test_restart_after_finalize():
    # two separate branches below the root force at least one finalize
    # followed by a restart at a lower-index vertex
    g = parse_edge_list("5 4 0\n0 1 1\n1 2 1\n0 3 1\n3 4 1\n")
    r = ggst_solve(g, debug=True)
    assert r.total_weight == 4
    assert r.counters["contractions"] == 0
    ids = reconstruct(r, build_leaf_map(r, g), g, debug=True)
    assert sorted(ids) == [0, 1, 2, 3]


def test_antilemon_structure_counters():
    k = 60
    g = gen_antilemon(k)
    r = ggst_solve(g, debug=True)
    assert r.total_weight == k
    assert r.counters["contractions"] >= k - 2
    # all-contraction worst case: <= 2n queries + 2n deletes + n merges
    ops = (r.counters["af_queries"] + r.counters["af_deletes"]
           + r.counters["af_merges"])
    assert ops <= 5 * g.n
    ids = reconstruct(r, build_leaf_map(r, g), g, debug=True)
    assert is_arborescence(g, ids)


def test_negative_weights_and_parallel_edges():
    from dmst import Graph
    g = Graph(3, 0, [0, 0, 1, 2, 1], [1, 1, 2, 1, 1], [-5, -9, -1, -8, -100])
    r = ggst_solve(g, debug=True)
    assert r.total_weight == brute_force(g)[0] == -10
    ids = reconstruct(r, build_leaf_map(r, g), g, debug=True)
    assert sorted(ids) == [1, 2]


def _digest(xs: list[int]) -> str:
    return hashlib.sha256(",".join(map(str, xs)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("make, want, debug_modes", [
    (lambda: gen_antilemon(300),
     (300, "a613a851f065d03f", "ba17bb2b85fd0fbe",
      {"picks": 599, "contractions": 299, "summed_cycle_length": 598,
       "af_queries": 599, "af_deletes": 598, "af_merges": 299,
       "dsu_visits": 299}), (False, True)),
    (lambda: gen_er_rooted(2000, 8000, 100, 11),
     (47397, "e3d508e6b88b22bd", "b139e3347cf2c7b8",
      {"picks": 2008, "contractions": 9, "summed_cycle_length": 158,
       "af_queries": 2008, "af_deletes": 154, "af_merges": 149,
       "dsu_visits": 229}), (False,)),
    (lambda: gen_er_rooted(300, 2400, 2, 5),
     (301, "872a13aa6aea4ca6", "7e3c5ca63406ddca",
      {"picks": 316, "contractions": 17, "summed_cycle_length": 97,
       "af_queries": 316, "af_deletes": 95, "af_merges": 80,
       "dsu_visits": 110}), (False, True)),
], ids=["antilemon-300", "er-2000-8000", "er-300-2400-ties"])
def test_golden_trace_and_counters(make, want, debug_modes):
    # the trace and every counter on fixed instances: a change to the
    # forest or the DSU must pick the same edges in the same order and do
    # the same work. Weights 1..2 in er-300-2400-ties pin the one tie rule,
    # the smaller edge id on equal cost, in _extend and in the fold.
    # er-2000-8000 skips debug mode, whose full-forest walk per pick takes
    # seconds there.
    weight, picked, parents, counters = want
    g = make()
    for debug in debug_modes:
        r = ggst_solve(g, debug=debug)
        assert r.total_weight == weight
        assert _digest(r.picked) == picked
        assert _digest(r.forest_parent) == parents
        assert r.counters == counters


def test_run_frees_every_passive_list():
    # a finalized path is never contracted, so nothing reads its passive
    # lists again: none may be left holding demoted edges after the solve
    rng = random.Random(4)
    graphs = [gen_antilemon(300), gen_er_rooted(2000, 8000, 100, 11)]
    graphs += [random_instance(rng, 14, 50, -2, 2) for _ in range(300)]
    for g in graphs:
        solver = GgstSolver(g)
        try:
            solver.run()
        except Infeasible:
            continue
        assert not any(solver.passive)


def test_solve_leaves_no_cyclic_garbage():
    # the forest is int lists, so a solve leaves nothing that only the
    # cycle collector could free
    for g in (gen_antilemon(300), gen_er_rooted(500, 2000, 50, 5)):
        gc.collect()
        gc.disable()
        try:
            ggst_solve(g)
            assert gc.collect() == 0
        finally:
            gc.enable()
