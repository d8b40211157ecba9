import random

import pytest

from dmst import ActiveForest, ContractionDSU
from dmst.active_forest import _ring_nodes


class Rig:
    """A standalone growth path for driving the forest directly.

    Vertices 0..cap-1 double as path vertices and edge origins; edges are
    appended to org/tgt/w on the fly, which the forest indexes live.
    """

    def __init__(self, cap: int = 64):
        self.cap = cap
        self.cdsu = ContractionDSU(cap)
        self.org: list[int] = []
        self.tgt: list[int] = []
        self.w: list[int] = []
        self.af = ActiveForest(self.cdsu, self.tgt, self.w)
        self.path: list[int] = []
        self.pos: dict[int, int] = {}
        self.next_vertex = 0
        self.next_pos = 0
        self.active: dict[int, int] = {}   # origin -> eid, the model

    def add_edge(self, origin: int, target: int, weight: int) -> int:
        self.org.append(origin)
        self.tgt.append(target)
        self.w.append(weight)
        return len(self.org) - 1

    def extend(self) -> int:
        v = self.next_vertex
        self.next_vertex += 1
        self.path.append(v)
        self.pos[v] = self.next_pos
        self.next_pos += 1
        return v

    # forest insert/replace, given the home heap the solver would pass
    def insert(self, eid: int, origin: int) -> None:
        self.af.insert(eid, origin, self.cdsu.find(self.tgt[eid]))

    def replace(self, origin: int, eid: int) -> None:
        self.af.replace(origin, eid, self.cdsu.find(self.tgt[eid]))

    def cost(self, eid: int) -> int:
        return self.w[eid] + self.cdsu.find_offset(self.tgt[eid])[1]

    def scan_min(self, head: int):
        best = None
        for o, eid in self.active.items():
            if self.cdsu.find(self.tgt[eid]) != head:
                continue
            key = (self.cost(eid), eid)
            if best is None or key < best[0]:
                best = (key, o)
        if best is None:
            return None
        (c, eid), o = best
        return (o, eid, c)


def test_insert_and_query_singleton():
    rig = Rig()
    h = rig.extend()
    eid = rig.add_edge(7, h, 42)
    rig.insert(eid, 7)
    assert rig.af.query_min(h) == (7, eid, 42)
    rig.af.check_invariants(rig.pos)


def test_query_returns_cheaper_of_two():
    rig = Rig()
    h = rig.extend()
    e7 = rig.add_edge(5, h, 7)
    e4 = rig.add_edge(6, h, 4)
    rig.insert(e7, 5)
    rig.insert(e4, 6)
    assert rig.af.query_min(h) == (6, e4, 4)
    rig.af.check_invariants(rig.pos)


def test_heaps_are_isolated():
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    eid = rig.add_edge(9, a, 1)
    rig.insert(eid, 9)
    assert rig.af.query_min(b) is None
    assert rig.af.query_min(a) == (9, eid, 1)


def test_insert_twice_same_origin_rejected():
    rig = Rig()
    h = rig.extend()
    rig.insert(rig.add_edge(3, h, 1), 3)
    with pytest.raises(ValueError, match="already has an active edge"):
        rig.insert(rig.add_edge(3, h, 2), 3)


def test_replace_rekeys_in_place():
    rig = Rig()
    h = rig.extend()
    e9 = rig.add_edge(4, h, 9)
    rig.insert(e9, 4)
    e2 = rig.add_edge(4, h, 2)
    rig.replace(4, e2)
    assert rig.af.query_min(h) == (4, e2, 2)
    rig.af.check_invariants(rig.pos)


def test_replace_moves_leaf_between_heaps():
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    e0 = rig.add_edge(8, a, 5)
    rig.insert(e0, 8)
    e1 = rig.add_edge(8, b, 5)
    rig.replace(8, e1)
    assert rig.af.query_min(a) is None
    assert rig.af.query_min(b) == (8, e1, 5)
    rig.af.check_invariants(rig.pos)


def test_replace_and_delete_reroute_displaced_child():
    # a child picked up in heap A rides along to heap B, then surfaces
    # back in A when its parent is deleted
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    e0 = rig.add_edge(3, a, 5)
    e1 = rig.add_edge(4, a, 7)
    rig.insert(e0, 3)
    rig.insert(e1, 4)
    assert rig.af.query_min(a) == (3, e0, 5)   # links e1 under e0
    e2 = rig.add_edge(3, b, 1)
    rig.replace(3, e2)                      # subtree rides to heap b
    rig.af.check_invariants(rig.pos)
    assert rig.af.query_min(b) == (3, e2, 1)
    rig.af.delete(3)
    rig.af.check_invariants(rig.pos)
    assert rig.af.query_min(b) is None
    assert rig.af.query_min(a) == (4, e1, 7)


def test_replace_without_node_rejected():
    rig = Rig()
    h = rig.extend()
    eid = rig.add_edge(2, h, 1)
    with pytest.raises(ValueError, match="has no active edge"):
        rig.replace(2, eid)


def test_delete_only_node_empties_heap():
    rig = Rig()
    h = rig.extend()
    rig.insert(rig.add_edge(1, h, 3), 1)
    rig.af.delete(1)
    assert rig.af.query_min(h) is None
    with pytest.raises(ValueError, match="has no active edge"):
        rig.af.delete(1)


def test_delete_root_surfaces_both_children():
    rig = Rig()
    h = rig.extend()
    eids = [rig.add_edge(10 + i, h, c) for i, c in enumerate((3, 5, 9, 11))]
    for i, eid in enumerate(eids):
        rig.insert(eid, 10 + i)
    assert rig.af.query_min(h) == (10, eids[0], 3)  # rank-2 tree rooted at 3
    rig.af.delete(10)
    rig.af.check_invariants(rig.pos)
    assert rig.af.query_min(h) == (11, eids[1], 5)


def test_merge_front_folds_second_into_head():
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    e0 = rig.add_edge(5, a, 3)
    rig.insert(e0, 5)
    e1 = rig.add_edge(6, b, 5)
    rig.insert(e1, 6)
    m = rig.cdsu.join(b, a)
    rig.af.merge_front(b, a)
    rig.pos[m] = rig.pos[b]
    assert rig.af.query_min(m) == (5, e0, 3)
    rig.af.check_invariants(rig.pos)


def test_merge_front_with_empty_side():
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    e0 = rig.add_edge(5, a, 3)
    rig.insert(e0, 5)
    m = rig.cdsu.join(b, a)
    rig.af.merge_front(b, a)
    rig.pos[m] = rig.pos[b]
    assert rig.af.query_min(m) == (5, e0, 3)


def test_query_empty_heap_is_none():
    rig = Rig()
    h = rig.extend()
    assert rig.af.query_min(h) is None


def test_consolidation_leaves_unique_ranks():
    rig = Rig()
    h = rig.extend()
    for i, c in enumerate((5, 3, 9, 1, 7, 2, 8)):
        rig.insert(rig.add_edge(20 + i, h, c), 20 + i)
    assert rig.af.query_min(h)[2] == 1
    roots = _ring_nodes(rig.af.root_ring[rig.cdsu.find(h)])
    ranks = [nd.rank for nd in roots]
    assert len(ranks) == len(set(ranks))
    rig.af.check_invariants(rig.pos)


def run_af_sequence(seed: int, nops: int, check_every_op: bool = True) -> None:
    """One randomized operation sequence checked against the scan oracle
    and the debug invariant walk."""
    rng = random.Random(seed)
    rig = Rig()
    rig.extend()
    for _ in range(nops):
        roll = rng.random()
        head = rig.path[-1]
        if roll < 0.15 and rig.next_vertex < rig.cap:
            rig.extend()
        elif roll < 0.45:
            free = [o for o in range(rig.cap) if o not in rig.active]
            if free:
                o = rng.choice(free)
                t = rng.choice(rig.path)
                eid = rig.add_edge(o, t, rng.randint(-50, 50))
                rig.insert(eid, o)
                rig.active[o] = eid
        elif roll < 0.60:
            if rig.active:
                o = rng.choice(sorted(rig.active))
                cur = rig.active[o]
                home = rig.cdsu.find(rig.tgt[cur])
                closer = [r for r in rig.path if rig.pos[r] > rig.pos[home]]
                # moving a subtree carrier between heaps without the solver's
                # contraction-time fold can strand a cheaper child under a
                # dearer parent once homes reunify, so only leaves move here
                leaf = rig.af.active[o].child is None
                if closer and leaf and rng.random() < 0.7:
                    t = rng.choice(closer)
                    eid = rig.add_edge(o, t, rng.randint(-50, 50))
                else:
                    # same home, strictly cheaper stored weight
                    eid = rig.add_edge(o, rig.tgt[cur],
                                       rig.w[cur] - rng.randint(1, 5))
                rig.replace(o, eid)
                rig.active[o] = eid
        elif roll < 0.70:
            if rig.active:
                o = rng.choice(sorted(rig.active))
                rig.af.delete(o)
                del rig.active[o]
        elif roll < 0.80:
            if len(rig.path) >= 2:
                a, b = rig.path[-1], rig.path[-2]
                m = rig.cdsu.join(a, b)
                rig.af.merge_front(a, b)
                rig.path[-2:] = [m]
                rig.pos[m] = max(rig.pos[a], rig.pos[b])
        elif roll < 0.90:
            r = rng.choice(rig.path)
            rig.cdsu.add_offset(r, rng.randint(-10, 10))
        else:
            head = rig.path[-1]
            assert rig.af.query_min(head) == rig.scan_min(head)
        if check_every_op:
            rig.af.check_invariants(rig.pos)
    head = rig.path[-1]
    assert rig.af.query_min(head) == rig.scan_min(head)
    rig.af.check_invariants(rig.pos)


def test_randomized_sequences_match_scan_oracle():
    for seed in range(300):
        run_af_sequence(seed, 25)


def test_counters_tick():
    rig = Rig()
    h = rig.extend()
    rig.insert(rig.add_edge(2, h, 4), 2)
    rig.af.query_min(h)
    rig.af.delete(2)
    assert rig.af.queries == 1 and rig.af.deletes == 1
    assert rig.af.counters() == {"af_queries": 1, "af_deletes": 1, "af_merges": 0}
