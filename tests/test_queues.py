import math
import random

import pytest

from conftest import random_instance
from dmst import Graph, LazyHeapQueue, MatrixQueue, PlainDSU, SilQueue
from dmst.queues import EMPTY

QUEUES = {"matrix": MatrixQueue, "heap": LazyHeapQueue, "sil": SilQueue}
KINDS = tuple(QUEUES)


def make_queue(kind, n, edges, rep=None):
    """One queue object with n slots, built from ``edges``, (origin,
    target, cost) triples in id order. Vertex n - 1 is the root, so no case
    targets it. Without a DSU's ``rep``, rep is the identity and a merge
    into slot a lands in slot a."""
    g = Graph(n, n - 1, [e[0] for e in edges], [e[1] for e in edges],
              [e[2] for e in edges])
    return QUEUES[kind](g, list(range(n)) if rep is None else rep)


def drain(q, v):
    out = []
    while True:
        item = q.extract_min(v)
        if item is None:
            return out
        out.append(item)


@pytest.mark.parametrize("kind", KINDS)
def test_load_extract_singleton(kind):
    q = make_queue(kind, 8, [(0, 5, 5)])
    assert q.extract_min(5) == (0, 5)
    assert q.extract_min(5) is None


@pytest.mark.parametrize("kind", KINDS)
def test_extract_orders_by_cost(kind):
    q = make_queue(kind, 8, [(0, 5, 5), (1, 5, 3)])
    assert q.extract_min(5) == (1, 3)
    assert q.extract_min(5) == (0, 5)


@pytest.mark.parametrize("kind", KINDS)
def test_sorted_drain(kind):
    q = make_queue(kind, 8, [(0, 5, 5), (1, 5, 3), (2, 5, 9)])
    assert [q.extract_min(5)[1] for _ in range(3)] == [3, 5, 9]
    assert q.extract_min(5) is None


@pytest.mark.parametrize("kind", KINDS)
def test_add_constant_shifts_drain(kind):
    q = make_queue(kind, 5, [(0, 3, 5), (1, 3, 3)])
    q.add_constant(3, -2)
    assert q.extract_min(3) == (1, 1)
    q.add_constant(3, 0)
    assert q.extract_min(3) == (0, 3)


@pytest.mark.parametrize("kind", KINDS)
def test_ties_break_by_edge_id(kind):
    q = make_queue(kind, 5, [(2, 3, 7), (0, 3, 7), (1, 3, 7)])
    assert [q.extract_min(3)[0] for _ in range(3)] == [0, 1, 2]


@pytest.mark.parametrize("kind", KINDS)
def test_slots_are_independent(kind):
    q = make_queue(kind, 8, [(0, 5, 9), (1, 6, 1), (2, 5, 4)])
    q.add_constant(6, 10)
    assert drain(q, 5) == [(2, 4), (0, 9)]
    assert drain(q, 6) == [(1, 11)]


def test_matrix_dedups_same_origin():
    # two parallel edges out of origin 3; the cheaper wins in either order
    q = make_queue("matrix", 8, [(3, 5, 4), (3, 5, 2)])
    assert drain(q, 5) == [(1, 2)]
    q = make_queue("matrix", 8, [(3, 5, 2), (3, 5, 4)])
    assert drain(q, 5) == [(0, 2)]


def test_matrix_merge_takes_elementwise_min():
    # same origin 0 into both slots, cheaper in slot 3
    q = make_queue("matrix", 5, [(0, 2, 9), (0, 3, 4), (1, 3, 6)])
    q.merge(2, 3)
    assert drain(q, 2) == [(1, 4), (2, 6)]


def test_matrix_merge_respects_resolver():
    # two origins collapsed by a DSU join dedup on merge
    d = PlainDSU(5)
    q = make_queue("matrix", 5, [(0, 2, 5), (1, 3, 3)], d.parent)
    d.join(0, 1)
    survivor = d.join(2, 3)
    q.merge(2, 3)
    assert drain(q, survivor) == [(1, 3)]


def test_matrix_refuses_more_than_its_vertex_limit():
    # raised before any row is allocated
    with pytest.raises(ValueError, match="at most 10000 vertices"):
        MatrixQueue(Graph(10_001, 0, [], [], []), list(range(10_001)))


def test_matrix_shift_scans_no_cell():
    q = make_queue("matrix", 8, [(i, 6, 10 - i) for i in range(6)])
    before = q.cells_scanned
    q.add_constant(6, -7)
    assert q.cells_scanned == before
    assert drain(q, 6) == [(5, -2), (4, -1), (3, 0), (2, 1), (1, 2), (0, 3)]


@pytest.mark.parametrize("kind", KINDS)
def test_negative_keys_drain_in_cost_then_id_order(kind):
    # costs and shifts below zero take the stored keys below 0; int keys
    # must still drain by cost, then edge id, also after a rebasing merge
    costs = {8: (-3, 4, -3, -9), 9: (-13, -8, 2, -14)}
    q = make_queue(kind, 11, [(eid, v, c) for v in (8, 9)
                              for eid, c in enumerate(costs[v], 4 * (v - 8))])
    q.add_constant(8, -5)           # -8, -1, -8, -14
    q.add_constant(9, -1)           # -14, -9, 1, -15
    q.merge(8, 9)
    q.add_constant(8, 2)
    assert drain(q, 8) == [(7, -13), (3, -12), (4, -12), (5, -7), (0, -6),
                           (2, -6), (1, 1), (6, 3)]


@pytest.mark.parametrize("kind", KINDS)
def test_merge_with_empty_is_identity(kind):
    for flip in (False, True):
        q = make_queue(kind, 5, [(0, 2, 2), (1, 2, 8)])
        into, src = (3, 2) if flip else (2, 3)
        q.merge(into, src)
        assert drain(q, into) == [(0, 2), (1, 8)]
        assert q.extract_min(src) is None


@pytest.mark.parametrize("kind", KINDS)
def test_merge_lands_in_surviving_slot(kind):
    # slot 1's DSU set is larger, so joining 0 into it keeps 1 as the
    # representative; the union must land there and slot 0 be emptied
    d = PlainDSU(7)
    q = make_queue(kind, 7, [(4, 0, 3), (5, 1, 7)], d.parent)
    d.join(1, 2)
    assert d.join(0, 1) == 1
    q.merge(0, 1)
    assert drain(q, 0) == []
    assert drain(q, 1) == [(0, 3), (1, 7)]


def test_sil_merge_rebases_offsets():
    q = make_queue("sil", 5, [(0, 2, 3), (1, 3, 5)])
    q.add_constant(2, -1)   # effective 2
    q.add_constant(3, -2)   # effective 3
    q.merge(2, 3)
    assert drain(q, 2) == [(0, 2), (1, 3)]


def test_sil_counts_moves_from_smaller_side():
    q = make_queue("sil", 5, [(4, 2, i) for i in range(5)]
                   + [(4, 3, 0), (4, 3, 1)])
    q.merge(2, 3)
    assert q.moves == 2
    assert q.list_merge_scan == 7


def test_sil_move_bound_random_merges():
    # smaller-into-larger: total moves <= loaded * ceil(log2 loaded)
    rng = random.Random(99)
    edges = [(64, v, rng.randint(-100, 100)) for v in range(64)
             for _ in range(rng.randint(1, 8))]
    q = make_queue("sil", 65, edges)
    slots = list(range(64))
    rng.shuffle(slots)
    while len(slots) > 1:
        a = slots.pop(rng.randrange(len(slots)))
        b = slots.pop(rng.randrange(len(slots)))
        q.add_constant(a, rng.randint(-5, 5))
        q.merge(a, b)
        slots.append(a)
    assert q.moves <= len(edges) * math.ceil(math.log2(len(edges)))


def _run_sequence(seed, nops=30):
    """Build all three strategies from one random graph, then drive them
    and a dict model through one random op sequence; extraction results
    must agree exactly with the model's sorted minimum. Merges follow a
    real DSU join, so the union lands in whichever slot survives."""
    rng = random.Random(seed)
    cap = 64
    # edge i runs from origin i into one of the slots cap, cap + 1 and
    # cap + 2, apart from the origins, so joining two slots never collapses
    # two origins; the root is origin 0, which no edge enters
    k = rng.randint(0, min(nops, cap))
    tgt = [cap + rng.randrange(3) for _ in range(k)]
    g = Graph(cap + 3, 0, list(range(k)), tgt,
              [rng.randint(-100, 100) for _ in range(k)])
    d = PlainDSU(cap + 3)
    queues = {kind: cls(g, d.parent) for kind, cls in QUEUES.items()}
    model = {cap + j: {} for j in range(3)}
    for e, (v, c) in enumerate(zip(tgt, g.w)):
        model[v][e] = c

    for _ in range(nops):
        keys = sorted(model)
        op = rng.randrange(3)
        k = rng.choice(keys)
        if op == 0:
            got = {kind: q.extract_min(k) for kind, q in queues.items()}
            want = min(((c, e) for e, c in model[k].items()), default=None)
            want = None if want is None else (want[1], want[0])
            for kind in KINDS:
                assert got[kind] == want, (seed, kind)
            if want:
                del model[k][want[0]]
        elif op == 1:
            delta = rng.randint(-20, 20)
            for q in queues.values():
                q.add_constant(k, delta)
            model[k] = {e: c + delta for e, c in model[k].items()}
        elif len(keys) > 1:
            j = rng.choice([x for x in keys if x != k])
            survivor = d.join(k, j)
            for q in queues.values():
                q.merge(k, j)
            union = {**model.pop(k), **model.pop(j)}
            model[survivor] = union

    for k in sorted(model):
        want = sorted((c, e) for e, c in model[k].items())
        for kind, q in queues.items():
            got = [(c, e) for e, c in drain(q, k)]
            assert got == want, (seed, kind)


def test_strategy_equivalence_random_sequences():
    for seed in range(300):
        _run_sequence(seed)


@pytest.mark.parametrize("kind", KINDS)
def test_load_drains_like_per_edge_inserts(kind):
    # self-loops, edges into the root, parallels, negative weights and cost
    # ties; a few shifts and DSU-driven merges after loading. The sorted
    # model files each edge as one insert would, keyed by its cell: the
    # edge id, or for the matrix the origin's representative at filing
    # time, where the cheaper entry is kept. The matrix's occupied lists
    # must name exactly its filled cells after every step
    rng = random.Random(9)
    for _ in range(300):
        g = random_instance(rng, 12, 60, -3, 3)
        d = PlainDSU(g.n)
        q = QUEUES[kind](g, d.parent)

        def cell(e):
            return d.parent[g.org[e]] if kind == "matrix" else e

        def file(entries, c, e):
            if (c, e) < entries.get(cell(e), (c + 1, e)):
                entries[cell(e)] = (c, e)

        def check_cells():
            if kind == "matrix":
                for v in model:
                    filled = [s for s, key in enumerate(q.row[v])
                              if key != EMPTY]
                    assert sorted(q.occupied[v]) == filled == sorted(model[v])

        model = {v: {} for v in range(g.n)}
        for e, (u, v, c) in enumerate(zip(g.org, g.tgt, g.w)):
            if v != g.root and u != v:
                file(model[v], c, e)
        check_cells()
        want = {"cells_scanned": 0, "melds": 0, "queue_moves": 0,
                "list_merge_scan": 0}
        for _ in range(rng.randint(0, g.n)):
            a, b = d.parent[rng.randrange(g.n)], d.parent[rng.randrange(g.n)]
            delta = rng.randint(-2, 2)
            if a == b:
                continue
            la, lb = len(model[a]), len(model[b])
            want["cells_scanned"] += lb
            want["melds"] += 1
            want["queue_moves"] += min(la, lb)
            want["list_merge_scan"] += la + lb
            survivor = d.join(a, b)
            q.add_constant(a, delta)
            q.merge(a, b)
            union = {s: (c + delta, e) for s, (c, e) in model.pop(a).items()}
            for c, e in model.pop(b).values():
                file(union, c, e)
            model[survivor] = union
            check_cells()
        assert q.counters() == {k: want[k] for k in q.counters()}
        # a matrix extract scans every filled cell of its slot
        for v in sorted(model):
            for s, (c, e) in sorted(model[v].items(), key=lambda it: it[1]):
                want["cells_scanned"] += len(model[v])
                assert q.extract_min(v) == (e, c)
                del model[v][s]
                check_cells()
                assert q.counters() == {k: want[k] for k in q.counters()}
            assert q.extract_min(v) is None


def test_heap_meld_counter_moves_on_merge():
    q = make_queue("heap", 5, [(4, 2, i) for i in range(4)]
                   + [(4, 3, i) for i in range(4)])
    q.merge(2, 3)
    assert q.melds > 0


def test_matrix_scan_counter_counts_cells():
    q = make_queue("matrix", 8, [(i, 6, 10 - i) for i in range(6)])
    before = q.cells_scanned
    q.extract_min(6)
    assert q.cells_scanned > before
