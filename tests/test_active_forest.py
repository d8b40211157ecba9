import random

import pytest

from conftest import scan_min
from dmst import ActiveForest, ContractionDSU


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

    def set_front(self, origin: int, eid: int) -> None:
        """``af.set_front`` with the home heap the solver would pass."""
        self.af.set_front(origin, eid, self.cdsu.find(self.tgt[eid]))

    def ring(self, entry: int) -> list[int]:
        """The origins in the sibling ring entered at entry, in ring
        order; pass ``af.root_ring[rep]`` or ``af.child[x]``."""
        if entry < 0:
            return []
        out = [entry]
        while self.af.right[out[-1]] != entry:
            out.append(self.af.right[out[-1]])
        return out

    def scan_min(self, head: int):
        return scan_min(self.cdsu, self.tgt, self.w, self.active.values(), head)


def test_insert_and_query_singleton():
    rig = Rig()
    h = rig.extend()
    eid = rig.add_edge(7, h, 42)
    rig.set_front(7, eid)
    assert rig.af.query_min(h) == (eid, 42)
    rig.af.check_invariants(rig.pos)


def test_query_returns_cheaper_of_two():
    rig = Rig()
    h = rig.extend()
    e7 = rig.add_edge(5, h, 7)
    e4 = rig.add_edge(6, h, 4)
    rig.set_front(5, e7)
    rig.set_front(6, e4)
    assert rig.af.query_min(h) == (e4, 4)
    rig.af.check_invariants(rig.pos)


def test_heaps_are_isolated():
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    eid = rig.add_edge(9, a, 1)
    rig.set_front(9, eid)
    assert rig.af.query_min(b) is None
    assert rig.af.query_min(a) == (eid, 1)


def test_set_front_on_fresh_origin_inserts_it():
    # a fresh origin becomes a root of its home heap, empty or not
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    e0 = rig.add_edge(3, a, 4)
    rig.set_front(3, e0)
    assert rig.af.eid[3] == e0 and rig.af.parent[3] == -1
    assert rig.ring(rig.af.root_ring[a]) == [3]
    e1 = rig.add_edge(4, a, 6)
    rig.set_front(4, e1)
    assert rig.af.eid[4] == e1 and rig.af.parent[4] == -1
    assert rig.ring(rig.af.root_ring[a]) == [3, 4]
    assert rig.af.root_ring[b] == -1
    rig.af.check_invariants(rig.pos)
    assert rig.af.query_min(a) == (e0, 4)
    assert rig.af.query_min(b) is None


def test_set_front_on_active_origin_moves_its_node():
    # an active origin's node leaves its parent's child ring or its root
    # list, so each origin keeps exactly one node
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    e0 = rig.add_edge(3, a, 4)
    e1 = rig.add_edge(4, a, 6)
    rig.set_front(3, e0)
    rig.set_front(4, e1)
    assert rig.af._consolidate(a) == (e0, 4)  # links 4 under 3
    assert rig.ring(rig.af.child[3]) == [4] and rig.af.rank[3] == 1
    e2 = rig.add_edge(4, b, 2)
    rig.set_front(4, e2)                   # a child moves out alone
    assert rig.af.eid[4] == e2 and rig.af.parent[4] == -1
    assert rig.af.child[3] == -1 and rig.af.rank[3] == 0
    assert rig.ring(rig.af.root_ring[b]) == [4]
    e3 = rig.add_edge(3, b, 5)
    rig.set_front(3, e3)                   # a root leaves its root list
    assert rig.af.root_ring[a] == -1
    assert sorted(rig.ring(rig.af.root_ring[b])) == [3, 4]
    rig.af.check_invariants(rig.pos)
    assert rig.af.query_min(a) is None
    assert rig.af.query_min(b) == (e2, 2)


def test_replace_rekeys_in_place():
    rig = Rig()
    h = rig.extend()
    e9 = rig.add_edge(4, h, 9)
    rig.set_front(4, e9)
    e2 = rig.add_edge(4, h, 2)
    rig.set_front(4, e2)
    assert rig.af.query_min(h) == (e2, 2)
    rig.af.check_invariants(rig.pos)


def test_replace_moves_leaf_between_heaps():
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    e0 = rig.add_edge(8, a, 5)
    rig.set_front(8, e0)
    e1 = rig.add_edge(8, b, 5)
    rig.set_front(8, e1)
    assert rig.af.query_min(a) is None
    assert rig.af.query_min(b) == (e1, 5)
    rig.af.check_invariants(rig.pos)


def test_replace_and_delete_reroute_displaced_child():
    # a child picked up in heap A rides along to heap B, then surfaces
    # back in A when its parent is deleted
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    e0 = rig.add_edge(3, a, 5)
    e1 = rig.add_edge(4, a, 7)
    rig.set_front(3, e0)
    rig.set_front(4, e1)
    assert rig.af._consolidate(a) == (e0, 5)  # links e1 under e0
    assert rig.af.parent[4] == 3
    e2 = rig.add_edge(3, b, 1)
    rig.set_front(3, e2)                   # subtree rides to heap b
    rig.af.check_invariants(rig.pos)
    assert rig.af.query_min(b) == (e2, 1)
    rig.af.delete(3)
    rig.af.check_invariants(rig.pos)
    assert rig.af.query_min(b) is None
    assert rig.af.query_min(a) == (e1, 7)


def test_delete_only_node_empties_heap():
    rig = Rig()
    h = rig.extend()
    rig.set_front(1, rig.add_edge(1, h, 3))
    rig.af.delete(1)
    assert rig.af.query_min(h) is None
    with pytest.raises(ValueError, match="has no active edge"):
        rig.af.delete(1)


def test_delete_root_surfaces_both_children():
    rig = Rig()
    h = rig.extend()
    eids = [rig.add_edge(10 + i, h, c) for i, c in enumerate((3, 5, 9, 11))]
    for i, eid in enumerate(eids):
        rig.set_front(10 + i, eid)
    assert rig.af._consolidate(h) == (eids[0], 3)  # rank-2 tree rooted at 3
    assert rig.af.rank[10] == 2
    rig.af.delete(10)
    rig.af.check_invariants(rig.pos)
    assert rig.af.query_min(h) == (eids[1], 5)


def test_merge_front_folds_second_into_head():
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    e0 = rig.add_edge(5, a, 3)
    rig.set_front(5, e0)
    e1 = rig.add_edge(6, b, 5)
    rig.set_front(6, e1)
    m = rig.cdsu.join(b, a)
    rig.af.merge_front(b, a)
    rig.pos[m] = rig.pos[b]
    assert rig.af.query_min(m) == (e0, 3)
    rig.af.check_invariants(rig.pos)


def test_merge_front_with_empty_side():
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    e0 = rig.add_edge(5, a, 3)
    rig.set_front(5, e0)
    m = rig.cdsu.join(b, a)
    rig.af.merge_front(b, a)
    rig.pos[m] = rig.pos[b]
    assert rig.af.stale[m] == 0           # the side's flag is kept
    assert rig.af.query_min(m) == (e0, 3)


def test_merge_front_with_empty_side_keeps_a_stale_flag():
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    for o, c in ((3, 1), (4, 5), (5, 2)):
        add_front(rig, o, a, c)
    rig.af.delete(3)
    del rig.active[3]
    m = rig.cdsu.join(b, a)
    rig.af.merge_front(b, a)
    rig.pos[m] = rig.pos[b]
    assert_query_consolidates(rig, m)


def test_query_empty_heap_is_none():
    rig = Rig()
    h = rig.extend()
    assert rig.af.query_min(h) is None


def test_consolidation_leaves_unique_ranks():
    rig = Rig()
    h = rig.extend()
    for i, c in enumerate((5, 3, 9, 1, 7, 2, 8)):
        rig.set_front(20 + i, rig.add_edge(20 + i, h, c))
    assert rig.af._consolidate(h)[1] == 1
    roots = rig.ring(rig.af.root_ring[rig.cdsu.find(h)])
    ranks = [rig.af.rank[x] for x in roots]
    assert len(ranks) == len(set(ranks))
    rig.af.check_invariants(rig.pos)


def test_rank_outgrows_log_n():
    # with no cascading cuts, deleting grandchildren thins the children but
    # leaves the root's rank, so a rank can pass any O(log n) bound; the
    # consolidation's rank buckets must still have room for it
    cap = 255
    limit = 2 * cap.bit_length() + 2
    rig = Rig(cap)
    h = rig.extend()
    af = rig.af
    top = 0
    while top <= limit:
        # refill every free origin, dearer than all live edges, and link
        for o in range(cap):
            if af.eid[o] < 0:
                eid = rig.add_edge(o, h, len(rig.w))
                rig.set_front(o, eid)
                rig.active[o] = eid
        af._consolidate(h)
        roots = rig.ring(af.root_ring[h])
        top = max(af.rank[x] for x in roots)
        # thin: delete every grandchild's subtree, deepest first
        for x in roots:
            for c in rig.ring(af.child[x]):
                doomed = rig.ring(af.child[c])
                for d in doomed:
                    doomed.extend(rig.ring(af.child[d]))
                for d in reversed(doomed):
                    af.delete(d)
                    del rig.active[d]
    assert af.query_min(h) == rig.scan_min(h)
    af.check_invariants(rig.pos)


def add_front(rig: Rig, origin: int, target: int, weight: int) -> int:
    eid = rig.add_edge(origin, target, weight)
    rig.set_front(origin, eid)
    rig.active[origin] = eid
    return eid


def assert_query_consolidates(rig: Rig, h: int) -> None:
    """h's heap is stale, and its next query links its roots to unique
    ranks, answers like the scan oracle and leaves the heap fresh."""
    af = rig.af
    assert af.stale[h] == 1
    assert af.query_min(h) == rig.scan_min(h)
    assert af.stale[h] == 0
    ranks = [af.rank[x] for x in rig.ring(af.root_ring[h])]
    assert max(ranks) > 0 and len(ranks) == len(set(ranks))
    af.check_invariants(rig.pos)


def test_fresh_heap_answers_without_linking():
    # the entry follows the minimum as fronts arrive, so no query links
    rig = Rig()
    h = rig.extend()
    origins = range(20, 27)
    for o, c in zip(origins, (5, 3, 9, 1, 7, 2, 8)):
        add_front(rig, o, h, c)
        assert rig.af.stale[h] == 0
        assert rig.af.eid[rig.af.root_ring[h]] == rig.scan_min(h)[0]
        assert rig.af.query_min(h) == rig.scan_min(h)
    assert sorted(rig.ring(rig.af.root_ring[h])) == list(origins)
    assert all(rig.af.rank[o] == 0 and rig.af.parent[o] == -1 for o in origins)
    assert rig.af.queries == 7
    rig.af.check_invariants(rig.pos)


def test_fresh_entry_breaks_cost_ties_by_edge_id():
    rig = Rig()
    h = rig.extend()
    e0 = rig.add_edge(3, h, 4)
    e1 = rig.add_edge(4, h, 4)
    rig.set_front(4, e1)
    rig.set_front(3, e0)
    assert rig.af.stale[h] == 0 and rig.af.root_ring[h] == 3
    assert rig.af.query_min(h) == (e0, 4)


@pytest.mark.parametrize("unhook", ["set_front", "delete"])
def test_unhooking_the_entry_makes_the_heap_stale(unhook):
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    for o, c in ((3, 1), (4, 5), (5, 2), (6, 4)):
        add_front(rig, o, a, c)
    assert rig.af.root_ring[a] == 3 and rig.af.stale[a] == 0
    if unhook == "set_front":
        add_front(rig, 3, b, 9)
    else:
        rig.af.delete(3)
        del rig.active[3]
    assert_query_consolidates(rig, a)
    assert rig.af.query_min(a) == (rig.active[5], 2)


def test_delete_splicing_children_makes_their_heap_stale():
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    add_front(rig, 3, a, 1)
    c = add_front(rig, 4, a, 2)
    rig.af._consolidate(a)
    assert rig.af.parent[4] == 3
    add_front(rig, 3, b, 1)               # 4 rides along to heap b
    add_front(rig, 5, a, 8)
    assert rig.af.root_ring[a] == 5 and rig.af.stale[a] == 0
    rig.af.delete(3)                      # 4 returns to a, below the entry
    del rig.active[3]
    assert_query_consolidates(rig, a)
    assert rig.af.query_min(a) == (c, 2)


def test_merging_two_nonempty_heaps_makes_the_merged_heap_stale():
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    best = add_front(rig, 5, a, 3)
    add_front(rig, 6, a, 6)
    add_front(rig, 7, b, 5)
    add_front(rig, 8, b, 7)
    assert rig.af.stale[a] == rig.af.stale[b] == 0
    m = rig.cdsu.join(b, a)
    rig.af.merge_front(b, a)
    rig.pos[m] = rig.pos[b]
    assert_query_consolidates(rig, m)
    assert rig.af.query_min(m) == (best, 3)


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
                rig.set_front(o, eid)
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
                leaf = rig.af.child[o] < 0
                if closer and leaf and rng.random() < 0.7:
                    t = rng.choice(closer)
                    eid = rig.add_edge(o, t, rng.randint(-50, 50))
                else:
                    # same home, strictly cheaper stored weight
                    eid = rig.add_edge(o, rig.tgt[cur],
                                       rig.w[cur] - rng.randint(1, 5))
                rig.set_front(o, eid)
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
    rig.set_front(2, rig.add_edge(2, h, 4))
    rig.af.query_min(h)
    rig.af.delete(2)
    assert rig.af.queries == 1 and rig.af.deletes == 1
    assert rig.af.counters() == {"af_queries": 1, "af_deletes": 1, "af_merges": 0}
