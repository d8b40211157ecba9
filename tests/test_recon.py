import random
import time
from types import SimpleNamespace

import pytest

from conftest import SOLVERS, random_instance
from dmst import (Graph, Infeasible, SolveTimeout, brute_force, build_leaf_map,
                  gen_antilemon, ggst_solve, is_arborescence, reconstruct,
                  tarjan_solve)
from dmst import ggst as ggst_mod
from dmst import recon
from dmst import tarjan as tarjan_mod
from dmst.recon import PickLog
from dmst.tarjan import SolveResult


def test_single_vertex(g_one):
    r = tarjan_solve(g_one, "sil")
    leaf = build_leaf_map(r, g_one)
    assert leaf == {}
    assert reconstruct(r, leaf, g_one, debug=True) == []


@pytest.mark.parametrize("config", sorted(SOLVERS))
def test_empty_instance_passes_its_checks(config):
    # n == 0: no edges to pick, and the empty set is the only arborescence
    g = Graph(0, 0, [], [], [])
    r = SOLVERS[config](g, debug=True)
    assert r.total_weight == 0 and r.picked == []
    assert reconstruct(r, build_leaf_map(r, g), g, debug=True) == []
    assert is_arborescence(g, [])
    assert not is_arborescence(g, [0])


def test_tri_recovers_unique_optimum(g_tri):
    for solve in SOLVERS.values():
        r = solve(g_tri)
        leaf = build_leaf_map(r, g_tri)
        ids = reconstruct(r, leaf, g_tri, debug=True)
        assert sorted(ids) == [0, 2]
        assert sum(g_tri.edges[e].weight for e in ids) == 6


def test_tri_leaf_map_uses_earliest_pick(g_tri):
    r = tarjan_solve(g_tri, "sil")
    # picks [2, 3, 0]: vertex 2 first targeted by pick 0, vertex 1 by pick 1
    assert build_leaf_map(r, g_tri) == {2: 0, 1: 1}


def test_cyc_leaf_map_points_at_cycle_picks(g_cyc):
    for solve in SOLVERS.values():
        r = solve(g_cyc)
        leaf = build_leaf_map(r, g_cyc)
        # first two picks are the weight-1 cycle edges, one per vertex
        assert sorted(leaf) == [1, 2]
        assert sorted(leaf.values()) == [0, 1]


def test_cyc_emits_a_valid_optimum(g_cyc):
    for name, solve in SOLVERS.items():
        r = solve(g_cyc)
        ids = reconstruct(r, build_leaf_map(r, g_cyc), g_cyc, debug=True)
        assert is_arborescence(g_cyc, ids), name
        assert sum(g_cyc.edges[e].weight for e in ids) == 11


@pytest.mark.parametrize("config", sorted(SOLVERS))
def test_past_deadline_raises_timeout(config):
    # antilemon k=400 takes about 800 picks, past the 512-step poll
    with pytest.raises(SolveTimeout):
        SOLVERS[config](gen_antilemon(400), deadline=time.monotonic() - 1)


@pytest.mark.parametrize("config", sorted(SOLVERS))
def test_deadline_passed_mid_solve_raises_timeout(config, monkeypatch):
    # the clock passes the deadline only after the first poll, at pick 0,
    # so only a later poll can raise: antilemon k=400 takes about 800 picks
    polls = []

    def monotonic():
        polls.append(None)
        return 0.0 if len(polls) == 1 else 2.0

    monkeypatch.setattr(recon, "time", SimpleNamespace(monotonic=monotonic))
    with pytest.raises(SolveTimeout):
        SOLVERS[config](gen_antilemon(400), deadline=1.0)
    assert len(polls) >= 2


def test_missing_target_is_reported(g_tri):
    fake = SolveResult(total_weight=0, picked=[0], forest_parent=[-1])
    with pytest.raises(RuntimeError, match="no picked edge targets vertex 2"):
        build_leaf_map(fake, g_tri)


def test_is_arborescence_rejects_bad_sets(g_tri):
    assert is_arborescence(g_tri, [0, 2])
    assert not is_arborescence(g_tri, [0])          # too few
    assert not is_arborescence(g_tri, [0, 1, 2])    # too many
    assert not is_arborescence(g_tri, [2, 3])       # root unreachable
    assert not is_arborescence(g_tri, [0, 3])       # in-degree 2 on vertex 1
    # ids that are not edges: a negative one must not index from the end
    g = Graph(2, 0, [0, 1], [1, 0], [1, 1])
    assert is_arborescence(g, [0])
    assert not is_arborescence(g, [-2])
    assert not is_arborescence(g, [5])


def test_random_instances_reconstruct_exactly():
    rng = random.Random(550)
    checked = 0
    while checked < 400:
        g = random_instance(rng)
        try:
            want, _ = brute_force(g)
        except Infeasible:
            continue
        for solve in SOLVERS.values():
            r = solve(g)
            ids = reconstruct(r, build_leaf_map(r, g), g, debug=True)
            assert len(ids) == g.n - 1
            assert len(set(ids)) == len(ids)
            assert is_arborescence(g, ids)
            assert sum(g.edges[e].weight for e in ids) == want
        checked += 1


def test_visits_stay_linear_in_picked():
    from dmst import gen_er_rooted
    g = gen_er_rooted(500, 2000, 50, 3)
    for solve in (lambda x: tarjan_solve(x, "sil"), ggst_solve):
        r = solve(g)
        # debug mode enforces the node-visit bound internally
        ids = reconstruct(r, build_leaf_map(r, g), g, debug=True)
        assert len(ids) == g.n - 1


def record(log: PickLog, head: int, eid: int, cost: int) -> None:
    """One pick written into the log's columns as both solvers' loops
    write it in debug mode, the check first."""
    log.check_head(head)
    log.pick_for[head] = len(log.picked)
    log.picked.append(eid)
    log.costs.append(cost)
    log.forest_parent.append(-1)


def contract(log: PickLog, members: list[int], merged: int) -> None:
    """One contraction written into the log as both solvers' loops write
    it in debug mode: the members' picks become children of the next pick,
    and the next pick must enter merged."""
    for r in members:
        log.forest_parent[log.pick_for[r]] = len(log.picked)
    log.next_head = merged


def test_pick_after_contract_must_enter_merged_vertex():
    # a contraction makes the members' picks children of the next pick, so
    # that pick has to enter the merged vertex; debug mode enforces the rule
    log = PickLog(3, None)
    record(log, 1, 0, 4)
    record(log, 2, 1, 5)
    contract(log, [1, 2], 1)
    with pytest.raises(AssertionError, match="merged vertex"):
        record(log, 0, 2, 0)

    log = PickLog(3, None)
    record(log, 1, 0, 4)
    record(log, 2, 1, 5)
    contract(log, [1, 2], 2)
    record(log, 2, 2, 0)
    record(log, 0, 3, 1)  # the rule holds for one pick only
    assert log.forest_parent == [2, 2, -1, -1]
    c = log.result({}).counters
    assert (c["contractions"], c["summed_cycle_length"]) == (1, 2)


def test_result_counts_contractions_from_the_forest_parents():
    # each cycle's member picks, and only theirs, share the next pick as
    # parent, so the log counts contractions and their summed length from
    # forest_parent; here the second cycle holds the first one's pick
    log = PickLog(4, None)
    record(log, 1, 0, 4)
    record(log, 2, 1, 5)
    contract(log, [1, 2], 2)
    record(log, 2, 2, 0)
    record(log, 3, 3, 1)
    contract(log, [2, 3], 3)
    record(log, 3, 4, 0)
    assert log.forest_parent == [2, 2, 4, 4, -1]
    counters = log.result({"x": 7}).counters
    assert counters == {"picks": 5, "contractions": 2,
                        "summed_cycle_length": 4, "x": 7}
    assert PickLog(1, None).result({}).counters["contractions"] == 0


class MisdirectedLog(PickLog):
    """A log whose ``next_head`` names the vertex after the one a solver
    writes there, so the pick after a contraction breaks the rule."""

    @property
    def next_head(self) -> int:
        return self._next_head

    @next_head.setter
    def next_head(self, v: int) -> None:
        self._next_head = v if v < 0 else (v + 1) % self.n


@pytest.mark.parametrize("config", sorted(SOLVERS))
def test_solver_loop_checks_the_merged_vertex(config, g_cyc, monkeypatch):
    # the loop records a contraction's merged vertex in a log that misnames
    # it, so the solver's next pick, which enters the merged vertex, breaks
    # the rule; the check runs in the solver's own loop, and only in debug
    want = SOLVERS[config](g_cyc)
    module = ggst_mod if config == "ggst" else tarjan_mod
    monkeypatch.setattr(module, "PickLog", MisdirectedLog)
    with pytest.raises(AssertionError, match="merged vertex"):
        SOLVERS[config](g_cyc, debug=True)
    got = SOLVERS[config](g_cyc)
    assert (got.picked, got.forest_parent) == (want.picked, want.forest_parent)
    assert got.counters["contractions"] == 1
