import gc
import hashlib
import random

import pytest

from conftest import random_instance, scan_ggst, shape_free
from dmst import (GgstSolver, Infeasible, brute_force, build_leaf_map,
                  gen_antilemon, gen_er_rooted, ggst_solve, is_arborescence,
                  parse_edge_list, reconstruct, tarjan_solve)


def test_single_vertex(g_one):
    r = ggst_solve(g_one, debug=True)
    assert r.total_weight == 0 and r.picked == []
    assert r.counters["af_queries"] == r.counters["head_scans"] == 0


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
    # fills happen at contractions only. The second one files a fresh
    # member's incoming edges, which demote two fronts into the first
    # merged vertex (edges 1 and 9) to its passive list; the third one
    # joins both merged vertices and folds those passive edges back into
    # the fronts of origins outside it
    g = gen_er_rooted(6, 24, 3, 205)
    solver = GgstSolver(g, debug=True)
    fill, size, front = solver.af.fill, solver.cdsu.size, solver.af.eid
    filed, folded, demoted = set(), [], []

    def counting(home, edges, passive):
        assert size[home] > 1
        before = front[:]
        lens = {t: len(p) for t, p in passive.items()}
        fill(home, edges, passive)
        # an edge once a front and a front again came from a passive list
        folded.append([e for x, e in enumerate(front)
                       if e != before[x] and e in filed])
        demoted.append([e for t in sorted(passive)
                        for e in passive[t][lens.get(t, 0):]])
        filed.update(e for e in front if e >= 0)

    solver.af.fill = counting
    r = solver.run()
    ref = scan_ggst(g)
    assert folded == [[], [], [9, 1]]
    assert demoted == [[], [1, 9], []]
    assert r.total_weight == ref.total_weight == 8
    assert r.picked == ref.picked == [5, 4, 8, 10, 3, 12, 9, 21]
    assert r.forest_parent == ref.forest_parent
    assert shape_free(r.counters) == ref.counters
    assert r.counters["contractions"] == 3


def test_later_survivor_with_two_heaps_matches_scan_forest():
    # the fourth contraction's members have sets of sizes 2, 1, 3, 1 and
    # 1, so the third member survives (pairwise joins in path order kept
    # the first), and the merge splices two non-empty root lists into its
    # heap
    g = gen_er_rooted(14, 56, 3, 89)
    solver = GgstSolver(g, debug=True)
    merge, root_ring = solver.af.merge, solver.af.root_ring
    merges = []

    def spying(members, merged):
        merges.append((members.index(merged),
                       sum(root_ring[r] >= 0 for r in members)))
        merge(members, merged)

    solver.af.merge = spying
    r = solver.run()
    ref = scan_ggst(g)
    assert merges[3] == (2, 2)
    want = tarjan_solve(g, "sil").total_weight
    assert r.total_weight == ref.total_weight == want == 16
    assert r.picked == ref.picked
    assert r.forest_parent == ref.forest_parent
    assert shape_free(r.counters) == ref.counters


@pytest.mark.parametrize("prep", ["shift", "join"])
def test_debug_check_wants_a_new_head_uncontracted_and_unshifted(prep):
    # vertex 1, the first head, joins the path fresh
    solver = GgstSolver(gen_er_rooted(6, 18, 2, 5), debug=True)
    cdsu = solver.cdsu
    if prep == "shift":
        cdsu.shift[1] += 3
    else:
        cdsu.join([1, 2])
    with pytest.raises(AssertionError, match="uncontracted singleton"):
        solver.run()


def test_debug_check_keeps_a_fresh_head_out_of_the_forest():
    # vertex 1, the first head, has edges from 3, 4 and 5; filing them
    # gives it forest nodes, which only a filed vertex may have. A
    # vertex is filed exactly when it has a passive list.
    solver = GgstSolver(gen_er_rooted(6, 18, 2, 5), debug=True)
    solver.af.fill(1, solver.in_adj[1], solver.passive)
    with pytest.raises(AssertionError,
                       match="forest node homed at a fresh vertex"):
        solver.run()


def test_fold_rekeys_a_root_in_place():
    # the first contraction files a path, origin 1 over origin 4. Each of
    # the last two files a fresh member's edge from an origin whose front
    # already enters the merged heap, and cheaper; the node keeps its
    # place: origin 4 as the entry of a fresh heap, beside the one-node
    # path of origin 3, then origin 3 in a stale heap
    g = parse_edge_list("5 14 3\n0 2 -1\n3 4 1\n2 1 -4\n4 2 1\n1 4 4\n"
                        "0 2 5\n1 4 -2\n2 0 -5\n3 1 1\n0 4 -3\n1 2 -1\n"
                        "4 1 -3\n4 4 -2\n1 4 -3\n")
    solver = GgstSolver(g, debug=True)
    af = solver.af
    fill = af.fill
    rekeyed, shapes = [], []

    def ring(entry):
        out = [entry] if entry >= 0 else []
        while out and af.right[out[-1]] != entry:
            out.append(af.right[out[-1]])
        return out

    def recording(home, edges, passive):
        roots = {x: af.eid[x] for x in ring(af.root_ring[home])}
        stale = af.stale[home]
        fill(home, edges, passive)
        rekeyed.extend((x, af.eid[x], stale) for x, e in roots.items()
                       if af.eid[x] != e and af.parent[x] < 0)
        # each root as (origin, eid, rank, child ring), the entry, the flag
        shapes.append(([(x, af.eid[x], af.rank[x], ring(af.child[x]))
                        for x in ring(af.root_ring[home])],
                       af.root_ring[home], af.stale[home]))

    af.fill = recording
    r = solver.run()
    assert rekeyed == [(4, 11, 0), (3, 1, 1)]
    assert shapes == [([(1, 10, 1, [4])], 1, 0),
                      ([(4, 11, 0, []), (3, 8, 0, [])], 4, 0),
                      ([(3, 1, 0, [])], 3, 1)]
    assert r.counters["contractions"] == 3
    assert r.total_weight == brute_force(g)[0] == -8
    assert r.picked == scan_ggst(g).picked == [7, 0, 10, 2, 11, 9, 1]


def test_equal_cost_fold_keeps_the_strict_order():
    # the first contraction files vertex 0's edges, origin 3's edge 2
    # among them; the second joins fresh vertex 1, whose edge 5 from
    # origin 3 ties edge 2 at cost 0, and the fold keeps edge 2, the
    # smaller id, by the one tie rule every layer uses
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
    assert (r.picked, r.forest_parent, shape_free(r.counters)) == (
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


def test_antilemon_forest_work_stays_linear():
    # each fold's new nodes enter as one sorted path, so a query deletes
    # the path's head and splices its one child back: the forest walks and
    # splices at most 2n nodes, though every vertex contracts
    g = gen_antilemon(2000)
    r = ggst_solve(g)
    assert r.counters["af_roots"] + r.counters["af_splices"] <= 2 * g.n


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
       "af_queries": 299, "af_deletes": 298, "af_merges": 299,
       "dsu_visits": 299, "head_scans": 300, "af_roots": 0,
       "af_splices": 298}), (False, True)),
    (lambda: gen_er_rooted(2000, 8000, 100, 11),
     (47397, "e3d508e6b88b22bd", "b139e3347cf2c7b8",
      {"picks": 2008, "contractions": 9, "summed_cycle_length": 158,
       "af_queries": 9, "af_deletes": 27, "af_merges": 149,
       "dsu_visits": 183, "head_scans": 1999, "af_roots": 44,
       "af_splices": 35}), (False,)),
    (lambda: gen_er_rooted(300, 2400, 2, 5),
     (301, "872a13aa6aea4ca6", "7e3c5ca63406ddca",
      {"picks": 316, "contractions": 17, "summed_cycle_length": 97,
       "af_queries": 17, "af_deletes": 48, "af_merges": 80,
       "dsu_visits": 99, "head_scans": 299, "af_roots": 89,
       "af_splices": 70}), (False, True)),
], ids=["antilemon-300", "er-2000-8000", "er-300-2400-ties"])
def test_golden_trace_and_counters(make, want, debug_modes):
    # the trace and every counter on fixed instances: a change to the
    # forest or the DSU must pick the same edges in the same order and do
    # the same work. A contraction joins all its members into the first
    # of the largest at once, so dsu_visits counts the other members'
    # sizes (pairwise joins in path order read 229 and 110 here). Weights
    # 1..2 in er-300-2400-ties pin the one tie rule, the smaller edge id on
    # equal cost, in a fresh head's scan and in the fold. A fresh head's
    # pick is a scan and a filed head's a forest query.
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
        assert counters["af_queries"] + counters["head_scans"] == \
            counters["picks"]


def test_run_frees_every_passive_list():
    # a finalized path is never contracted, so nothing reads its passive
    # lists again: none may be left after the solve
    rng = random.Random(4)
    graphs = [gen_antilemon(300), gen_er_rooted(2000, 8000, 100, 11)]
    graphs += [random_instance(rng, 14, 50, -2, 2) for _ in range(300)]
    for g in graphs:
        solver = GgstSolver(g)
        try:
            solver.run()
        except Infeasible:
            continue
        assert solver.passive == {}


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
