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
        self.af = ActiveForest(self.cdsu, self.org, self.tgt, self.w)
        # every vertex has a list until a test covers it by deleting it
        self.passive: dict[int, list[int]] = {v: [] for v in range(cap)}
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

    def fill(self, home: int, eids: list[int]) -> None:
        """``af.fill`` of home with eids, as the solver calls it."""
        self.af.fill(home, eids, self.passive)

    def file(self, eid: int) -> None:
        """``fill`` of eid's home with eid alone."""
        self.fill(self.cdsu.find(self.tgt[eid]), [eid])

    def ring(self, entry: int) -> list[int]:
        """The origins in the sibling ring entered at entry, in ring
        order; pass ``af.root_ring[rep]`` or ``af.child[x]``."""
        if entry < 0:
            return []
        out = [entry]
        while self.af.right[out[-1]] != entry:
            out.append(self.af.right[out[-1]])
        return out

    def chain(self, head: int) -> list[int]:
        """The origins from head down through each one's last child: a
        path that fill hung, when head is its first node."""
        out = [head]
        while self.af.child[out[-1]] >= 0:
            out.append(self.af.left[self.af.child[out[-1]]])
        return out

    def scan_min(self, head: int):
        return scan_min(self.cdsu, self.tgt, self.w, self.active.values(), head)


def test_insert_and_query_singleton():
    rig = Rig()
    h = rig.extend()
    eid = rig.add_edge(7, h, 42)
    rig.file(eid)
    assert rig.af.query_min(h) == (eid, 42)
    rig.af.check_invariants(rig.pos)


def test_query_returns_cheaper_of_two():
    rig = Rig()
    h = rig.extend()
    e7 = rig.add_edge(5, h, 7)
    e4 = rig.add_edge(6, h, 4)
    rig.file(e7)
    rig.file(e4)
    assert rig.af.query_min(h) == (e4, 4)
    rig.af.check_invariants(rig.pos)


def test_heaps_are_isolated():
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    eid = rig.add_edge(9, a, 1)
    rig.file(eid)
    assert rig.af.query_min(b) is None
    assert rig.af.query_min(a) == (eid, 1)


def test_fill_on_fresh_origin_inserts_it():
    # a fresh origin becomes a root of its home heap, empty or not
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    e0 = rig.add_edge(3, a, 4)
    rig.file(e0)
    assert rig.af.eid[3] == e0 and rig.af.parent[3] == -1
    assert rig.ring(rig.af.root_ring[a]) == [3]
    e1 = rig.add_edge(4, a, 6)
    rig.file(e1)
    assert rig.af.eid[4] == e1 and rig.af.parent[4] == -1
    assert rig.ring(rig.af.root_ring[a]) == [3, 4]
    assert rig.af.root_ring[b] == -1
    rig.af.check_invariants(rig.pos)
    assert rig.af.query_min(a) == (e0, 4)
    assert rig.af.query_min(b) is None


def test_fill_on_active_origin_moves_its_node():
    # an active origin's node leaves its parent's child ring or its root
    # list, so each origin keeps exactly one node
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    e0 = rig.add_edge(3, a, 4)
    e1 = rig.add_edge(4, a, 6)
    rig.file(e0)
    rig.file(e1)
    assert rig.af._consolidate(a) == (e0, 4)  # links 4 under 3
    assert rig.ring(rig.af.child[3]) == [4] and rig.af.rank[3] == 1
    e2 = rig.add_edge(4, b, 2)
    rig.file(e2)  # a child moves out alone
    assert rig.af.eid[4] == e2 and rig.af.parent[4] == -1
    assert rig.af.child[3] == -1 and rig.af.rank[3] == 0
    assert rig.ring(rig.af.root_ring[b]) == [4]
    e3 = rig.add_edge(3, b, 5)
    rig.file(e3)  # a root leaves its root list
    assert rig.af.root_ring[a] == -1
    assert sorted(rig.ring(rig.af.root_ring[b])) == [3, 4]
    rig.af.check_invariants(rig.pos)
    assert rig.af.query_min(a) is None
    assert rig.af.query_min(b) == (e2, 2)


def test_replace_rekeys_in_place():
    rig = Rig()
    h = rig.extend()
    e9 = rig.add_edge(4, h, 9)
    rig.file(e9)
    e2 = rig.add_edge(4, h, 2)
    rig.file(e2)
    assert rig.af.query_min(h) == (e2, 2)
    rig.af.check_invariants(rig.pos)


def test_replace_moves_leaf_between_heaps():
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    e0 = rig.add_edge(8, a, 5)
    rig.file(e0)
    e1 = rig.add_edge(8, b, 5)
    rig.file(e1)
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
    rig.file(e0)
    rig.file(e1)
    assert rig.af._consolidate(a) == (e0, 5)  # links e1 under e0
    assert rig.af.parent[4] == 3
    e2 = rig.add_edge(3, b, 1)
    rig.file(e2)  # subtree rides to heap b
    rig.af.check_invariants(rig.pos)
    assert rig.af.query_min(b) == (e2, 1)
    rig.af.delete(3)
    rig.af.check_invariants(rig.pos)
    assert rig.af.query_min(b) is None
    assert rig.af.query_min(a) == (e1, 7)


def test_delete_only_node_empties_heap():
    rig = Rig()
    h = rig.extend()
    rig.file(rig.add_edge(1, h, 3))
    rig.af.delete(1)
    assert rig.af.query_min(h) is None
    with pytest.raises(ValueError, match="has no active edge"):
        rig.af.delete(1)


def test_delete_root_surfaces_both_children():
    rig = Rig()
    h = rig.extend()
    eids = [rig.add_edge(10 + i, h, c) for i, c in enumerate((3, 5, 9, 11))]
    for i, eid in enumerate(eids):
        rig.file(eid)
    assert rig.af._consolidate(h) == (eids[0], 3)  # rank-2 tree rooted at 3
    assert rig.af.rank[10] == 2
    rig.af.delete(10)
    rig.af.check_invariants(rig.pos)
    assert rig.af.query_min(h) == (eids[1], 5)


def join_and_merge(rig: Rig, members: list[int]) -> int:
    """A contraction's join and merge of members, which ggst calls right
    after each other; the merged vertex takes the newest member's place."""
    m = rig.cdsu.join(members)
    rig.af.merge(members, m)
    rig.pos[m] = max(rig.pos[r] for r in members)
    return m


def test_merge_folds_second_into_head():
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    e0 = rig.add_edge(5, a, 3)
    rig.file(e0)
    e1 = rig.add_edge(6, b, 5)
    rig.file(e1)
    m = join_and_merge(rig, [b, a])
    assert m == b
    assert rig.af.query_min(m) == (e0, 3)
    rig.af.check_invariants(rig.pos)


def test_merge_with_empty_side():
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    e0 = rig.add_edge(5, a, 3)
    rig.file(e0)
    m = join_and_merge(rig, [b, a])
    assert rig.af.stale[m] == 0           # the side's flag is kept
    assert rig.af.query_min(m) == (e0, 3)


def test_merge_with_empty_side_keeps_a_stale_flag():
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    for o, c in ((3, 1), (4, 5), (5, 2)):
        add_front(rig, o, a, c)
    rig.af.delete(3)
    del rig.active[3]
    m = join_and_merge(rig, [b, a])
    assert_query_consolidates(rig, m)


@pytest.mark.parametrize("kinds, stale", [
    (("empty", "fresh", "empty"), 0),
    (("empty", "stale", "empty"), 1),
    (("fresh", "empty", "fresh"), 1),
    (("empty", "fresh", "stale", "empty", "fresh"), 1),
    (("empty", "empty", "empty"), 0),
])
def test_merge_of_many_members_flags_the_merged_heap(kinds, stale):
    # one merge splices every non-empty root list; the merged heap is
    # stale when two or more were non-empty, and otherwise keeps the one
    # side's flag
    rig = Rig()
    members = [rig.extend() for _ in kinds]
    origin = iter(range(20, 64))
    for r, kind in zip(members, kinds):
        if kind == "fresh":
            for c in (4, 6):
                add_front(rig, next(origin), r, c + r)
        elif kind == "stale":  # its entry unhooked, as above
            origins = [next(origin) for _ in range(3)]
            for o, c in zip(origins, (1, 5, 2)):
                add_front(rig, o, r, c)
            rig.af.delete(origins[0])
            del rig.active[origins[0]]
        assert rig.af.stale[r] == (kind == "stale")
    m = join_and_merge(rig, members)
    af = rig.af
    assert m == members[0] and af.merges == len(members) - 1
    assert all(af.root_ring[r] == -1 for r in members if r != m)
    assert sorted(rig.ring(af.root_ring[m])) == sorted(rig.active)
    assert af.stale[m] == stale
    if stale:
        assert_query_consolidates(rig, m)
    elif rig.active:
        af.check_invariants(rig.pos)
        assert af.query_min(m) == rig.scan_min(m)
        assert af.roots == 0              # a fresh heap answers unlinked
    else:
        assert af.root_ring[m] == -1 and af.query_min(m) is None


def test_query_empty_heap_is_none():
    rig = Rig()
    h = rig.extend()
    assert rig.af.query_min(h) is None


def test_consolidation_leaves_unique_ranks():
    rig = Rig()
    h = rig.extend()
    for i, c in enumerate((5, 3, 9, 1, 7, 2, 8)):
        rig.file(rig.add_edge(20 + i, h, c))
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
        for o in range(1, cap):
            if af.eid[o] < 0:
                eid = rig.add_edge(o, h, len(rig.w))
                rig.file(eid)
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
    rig.file(eid)
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
    rig.file(e1)
    rig.file(e0)
    assert rig.af.stale[h] == 0 and rig.af.root_ring[h] == 3
    assert rig.af.query_min(h) == (e0, 4)


@pytest.mark.parametrize("unhook", ["fill", "delete"])
def test_unhooking_the_entry_makes_the_heap_stale(unhook):
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    for o, c in ((3, 1), (4, 5), (5, 2), (6, 4)):
        add_front(rig, o, a, c)
    assert rig.af.root_ring[a] == 3 and rig.af.stale[a] == 0
    if unhook == "fill":
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
    m = join_and_merge(rig, [b, a])
    assert_query_consolidates(rig, m)
    assert rig.af.query_min(m) == (best, 3)


def test_fill_files_each_origin_once_with_the_minimum_as_entry():
    rig = Rig()
    h = rig.extend()
    # a self-loop, then origins 5, 6 and 7; 6 and 7 tie at cost 1
    eids = [rig.add_edge(h, h, -9)]
    for o, c in ((5, 3), (6, 1), (7, 1)):
        rig.active[o] = rig.add_edge(o, h, c)
    rig.fill(h, eids + list(rig.active.values()))
    af = rig.af
    # one path in (cost, eid) order, its head the ring's only root
    assert rig.ring(af.root_ring[h]) == [6] and af.stale[h] == 0
    assert rig.chain(6) == [6, 7, 5]
    assert [af.rank[o] for o in (6, 7, 5)] == [1, 1, 0]
    assert af.query_min(h) == rig.scan_min(h) == (rig.active[6], 1)
    af.check_invariants(rig.pos)


@pytest.mark.parametrize("costs, order", [
    ((6, 4, 2, 9), (0, 1, 2, 3)),   # origin 5's later edge is cheaper
    ((4, 4, 4, 9), (2, 1, 0, 3)),   # equal costs: the smaller id wins
])
def test_fill_parallel_edge_replaces_the_front_and_moves_the_entry(
        costs, order):
    rig = Rig()
    h = rig.extend()
    e = [rig.add_edge(o, h, c) for o, c in zip((5, 6, 5, 5), costs)]
    rig.fill(h, [e[i] for i in order])
    rig.active = {5: min(e[0], e[2], key=lambda x: (rig.w[x], x)), 6: e[1]}
    af = rig.af
    assert af.eid[5] == rig.active[5] and af.eid[6] == e[1]
    # 5 heads the path at its final key, though it entered dearer than 6
    assert rig.ring(af.root_ring[h]) == [5] and af.stale[h] == 0
    assert rig.chain(5) == [5, 6] and af.rank[5] == 1 and af.rank[6] == 0
    assert af.query_min(h) == rig.scan_min(h) == (rig.active[5], costs[2])
    af.check_invariants(rig.pos)


def test_fill_keys_an_origin_at_its_final_front():
    # origin 5 joins the new nodes dearest, and its second edge re-keys it
    # cheapest: the path must sort by the final fronts, not by the keys
    # the nodes had when they joined
    rig = Rig()
    h = rig.extend()
    e = [rig.add_edge(o, h, c) for o, c in ((5, 9), (6, 4), (7, 6), (5, 1))]
    rig.fill(h, e)
    rig.active = {5: e[3], 6: e[1], 7: e[2]}
    af = rig.af
    assert af.eid[5] == e[3]
    assert rig.ring(af.root_ring[h]) == [5] and rig.chain(5) == [5, 6, 7]
    assert [af.rank[o] for o in (5, 6, 7)] == [1, 1, 0]
    af.check_invariants(rig.pos)
    # the path answers query after query, and nothing is consolidated
    for o, want in ((5, (e[3], 1)), (6, (e[1], 4)), (7, (e[2], 6))):
        assert af.query_min(h) == rig.scan_min(h) == want
        af.delete(o)
        del rig.active[o]
        af.check_invariants(rig.pos)
    assert af.query_min(h) is None
    assert af.roots == 0 and af.splices == 2


def test_fill_hangs_the_next_path_node_beside_a_moved_nodes_riders():
    # origin 3 moves from heap a to b carrying its child 4, whose home
    # stays a; in the path 5, 3, 6 node 6 joins 3's child ring after 4
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    add_front(rig, 3, a, 1)
    add_front(rig, 4, a, 2)
    af = rig.af
    af._consolidate(a)                    # 4 under 3
    assert af.parent[4] == 3
    new = {o: rig.add_edge(o, b, c) for o, c in ((3, 5), (6, 7), (5, 0))}
    rig.fill(b, list(new.values()))
    rig.active.update(new)
    assert af.root_ring[a] == -1
    assert rig.ring(af.root_ring[b]) == [5] and rig.ring(af.child[5]) == [3]
    assert rig.ring(af.child[3]) == [4, 6] and rig.chain(5) == [5, 3, 6]
    assert [af.rank[o] for o in (5, 3, 4, 6)] == [1, 2, 0, 0]
    af.check_invariants(rig.pos)
    assert af.query_min(b) == rig.scan_min(b) == (new[5], 0)
    af.delete(5)
    del rig.active[5]
    assert af.query_min(b) == rig.scan_min(b) == (new[3], 5)
    # deleting 3 returns each child to its own home heap
    af.delete(3)
    del rig.active[3]
    af.check_invariants(rig.pos)
    assert af.query_min(a) == rig.scan_min(a) == (rig.active[4], 2)
    assert af.query_min(b) == rig.scan_min(b) == (new[6], 7)


def test_fill_moving_the_entry_leaves_its_old_heap_stale():
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    for o, c in ((3, 1), (4, 5), (5, 2)):
        add_front(rig, o, a, c)
    assert rig.af.root_ring[a] == 3 and rig.af.stale[a] == 0
    rig.active[3] = rig.add_edge(3, b, 9)
    rig.fill(b, [rig.active[3]])
    assert rig.af.query_min(b) == (rig.active[3], 9)
    assert_query_consolidates(rig, a)
    assert rig.af.query_min(a) == (rig.active[5], 2)


def test_fill_moving_a_child_lowers_its_parents_rank_and_carries_its_subtree():
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    for o, c in ((3, 1), (4, 2), (5, 3), (6, 4)):
        add_front(rig, o, a, c)
    af = rig.af
    af._consolidate(a)                    # 3 over 4 and 5, 5 over 6
    assert af.rank[3] == 2 and af.parent[5] == 3 and af.parent[6] == 5
    rig.active[5] = rig.add_edge(5, b, 7)
    rig.fill(b, [rig.active[5]])
    assert af.rank[3] == 1 and rig.ring(af.child[3]) == [4]
    assert af.parent[5] == -1 and rig.ring(af.root_ring[b]) == [5]
    assert af.rank[5] == 1 and rig.ring(af.child[5]) == [6]
    af.check_invariants(rig.pos)
    assert af.stale[a] == 0
    assert af.query_min(a) == rig.scan_min(a) == (rig.active[3], 1)
    assert af.query_min(b) == rig.scan_min(b) == (rig.active[5], 7)


def test_fill_demotes_replaced_fronts_in_in_edge_order():
    rig = Rig()
    a, b, c, d = (rig.extend() for _ in range(4))
    old = {o: add_front(rig, o, t, 1) for o, t in ((10, b), (11, a),
                                                   (12, c), (13, b))}
    new = {o: rig.add_edge(o, d, 2) for o in (13, 11, 12, 10)}
    passive = rig.passive
    del passive[a]  # a is covered: its demoted front is dropped
    rig.fill(d, list(new.values()))
    rig.active.update(new)
    assert passive[b] == [old[13], old[10]] and passive[c] == [old[12]]
    assert a not in passive
    # equal costs: the path runs in edge id order
    assert rig.ring(rig.af.root_ring[d]) == [13]
    assert rig.chain(13) == [13, 11, 12, 10]
    assert [rig.af.rank[o] for o in (13, 11, 12, 10)] == [1, 1, 1, 0]
    for t in (a, b, c):
        assert rig.af.query_min(t) is None
    assert rig.af.query_min(d) == rig.scan_min(d) == (new[13], 2)
    rig.af.check_invariants(rig.pos)


def test_fill_splices_new_nodes_before_a_fresh_heaps_entry():
    rig = Rig()
    h = rig.extend()
    add_front(rig, 3, h, 2)
    add_front(rig, 4, h, 5)
    for o, c in ((6, 4), (7, 1), (8, 1)):
        rig.active[o] = rig.add_edge(o, h, c)
    rig.fill(h, [rig.active[o] for o in (6, 7, 8)])
    af = rig.af
    # the path's head alone joins the ring, before the old entry
    assert rig.ring(3) == [3, 4, 7]
    assert rig.chain(7) == [7, 8, 6]
    assert [af.rank[o] for o in (7, 8, 6)] == [1, 1, 0]
    assert af.root_ring[h] == 7 and af.stale[h] == 0
    assert af.query_min(h) == rig.scan_min(h) == (rig.active[7], 1)
    af.check_invariants(rig.pos)


def test_fill_rekeys_a_root_in_place_and_makes_it_the_entry():
    rig = Rig()
    h = rig.extend()
    for o, c in ((3, 1), (4, 5), (5, 3)):
        add_front(rig, o, h, c)
    af = rig.af
    assert rig.ring(af.root_ring[h]) == [3, 4, 5] and af.stale[h] == 0
    rig.active[4] = rig.add_edge(4, h, 0)
    rig.fill(h, [rig.active[4]])
    assert af.eid[4] == rig.active[4] and rig.ring(3) == [3, 4, 5]
    assert af.root_ring[h] == 4 and af.stale[h] == 0
    assert af.query_min(h) == rig.scan_min(h) == (rig.active[4], 0)
    af.check_invariants(rig.pos)


def test_fill_cuts_a_rekeyed_child_and_lowers_its_parents_rank():
    rig = Rig()
    h = rig.extend()
    for o, c in ((3, 1), (4, 2), (5, 3), (6, 4)):
        add_front(rig, o, h, c)
    af = rig.af
    af._consolidate(h)                    # 3 over 4 and 5, 5 over 6
    assert af.rank[3] == 2 and af.parent[5] == 3 and af.parent[6] == 5
    rig.active[5] = rig.add_edge(5, h, 0)
    rig.fill(h, [rig.active[5]])
    assert af.parent[5] == -1 and rig.ring(af.child[5]) == [6]
    assert af.rank[3] == 1 and rig.ring(af.child[3]) == [4]
    assert sorted(rig.ring(af.root_ring[h])) == [3, 5]
    assert af.root_ring[h] == 5 and af.stale[h] == 0
    assert af.query_min(h) == rig.scan_min(h) == (rig.active[5], 0)
    af.check_invariants(rig.pos)


def test_fill_into_a_stale_heap_leaves_it_stale():
    rig = Rig()
    h = rig.extend()
    for o, c in ((3, 1), (4, 5), (5, 2)):
        add_front(rig, o, h, c)
    rig.af.delete(3)
    del rig.active[3]
    rig.active[4] = rig.add_edge(4, h, 0)   # a root re-keyed in place
    rig.active[6] = rig.add_edge(6, h, 3)   # a new node
    rig.fill(h, [rig.active[4], rig.active[6]])
    assert sorted(rig.ring(rig.af.root_ring[h])) == [4, 5, 6]
    assert_query_consolidates(rig, h)
    assert rig.af.query_min(h) == (rig.active[4], 0)


def test_fill_reads_each_cost_with_its_targets_offset():
    # a fold's edges enter different members of a contracted home
    rig = Rig()
    a = rig.extend()
    b = rig.extend()
    add_front(rig, 3, a, 5)
    rig.cdsu.shift[a] -= 4                # origin 3's front now costs 1
    m = join_and_merge(rig, [b, a])
    af = rig.af
    assert m == b and af.stale[m] == 0
    e3 = rig.add_edge(3, b, 2)            # dearer than 3's front
    rig.active[4] = rig.add_edge(4, b, 0)
    rig.fill(m, [e3, rig.active[4]])
    assert af.eid[3] == rig.active[3] and not any(rig.passive.values())
    assert af.root_ring[m] == 4 and af.stale[m] == 0
    assert af.query_min(m) == rig.scan_min(m) == (rig.active[4], 0)
    af.check_invariants(rig.pos)


def run_af_sequence(seed: int, nops: int, check_every_op: bool = True) -> None:
    """One randomized operation sequence checked against the scan oracle
    and the debug invariant walk. Path vertices are the lower half of the
    vertices and origins the upper half, so an origin never joins a path
    vertex and keeps its own node."""
    rng = random.Random(seed)
    rig = Rig()
    half = rig.cap // 2
    rig.extend()
    for _ in range(nops):
        roll = rng.random()
        head = rig.path[-1]
        if roll < 0.15 and rig.next_vertex < half:
            rig.extend()
        elif roll < 0.45:
            free = [o for o in range(half, rig.cap) if o not in rig.active]
            if free:
                o = rng.choice(free)
                t = rng.choice(rig.path)
                eid = rig.add_edge(o, t, rng.randint(-50, 50))
                rig.file(eid)
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
                rig.file(eid)
                rig.active[o] = eid
        elif roll < 0.70:
            if rig.active:
                o = rng.choice(sorted(rig.active))
                rig.af.delete(o)
                del rig.active[o]
        elif roll < 0.80:
            if len(rig.path) >= 2:
                # a contraction of the path's last two to four vertices
                k = rng.randint(2, min(4, len(rig.path)))
                members = rig.path[-k:]
                rig.path[-k:] = [join_and_merge(rig, members)]
        elif roll < 0.90:
            r = rng.choice(rig.path)
            rig.cdsu.shift[r] += rng.randint(-10, 10)
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
    rig.fill(h, [rig.add_edge(2, h, 4), rig.add_edge(3, h, 5)])  # 2 over 3
    rig.af.query_min(h)
    rig.af.delete(2)                      # returns 3 to the root list
    rig.file(rig.add_edge(4, h, 6))       # a second root
    rig.af.delete(3)                      # unhooks the entry
    rig.af.query_min(h)                   # consolidates the one root left
    assert rig.af.queries == 2 and rig.af.deletes == 2
    assert rig.af.counters() == {"af_queries": 2, "af_deletes": 2,
                                 "af_merges": 0, "af_roots": 1,
                                 "af_splices": 1}
