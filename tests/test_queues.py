import math
import random

import pytest

from conftest import random_instance
from dmst import ContractionDSU, LazyHeapQueue, MatrixQueue, SilQueue

QUEUES = {"matrix": MatrixQueue, "heap": LazyHeapQueue, "sil": SilQueue}
KINDS = tuple(QUEUES)


def make_queue(kind, n, org):
    """One queue object with n slots; no DSU joins, so rep is the identity
    and a merge into slot a lands in slot a."""
    return QUEUES[kind](n, org, list(range(n)))


def drain(q, v):
    out = []
    while True:
        item = q.extract_min(v)
        if item is None:
            return out
        out.append(item)


@pytest.mark.parametrize("kind", KINDS)
def test_insert_extract_singleton(kind):
    org = [0, 1, 2]
    q = make_queue(kind, 8, org)
    q.insert(5, 0, 5)
    assert q.extract_min(5) == (0, 5)
    assert q.extract_min(5) is None


@pytest.mark.parametrize("kind", KINDS)
def test_extract_orders_by_cost(kind):
    org = [0, 1, 2]
    q = make_queue(kind, 8, org)
    q.insert(5, 0, 5)
    q.insert(5, 1, 3)
    assert q.extract_min(5) == (1, 3)
    assert q.extract_min(5) == (0, 5)


@pytest.mark.parametrize("kind", KINDS)
def test_sorted_drain(kind):
    org = list(range(3))
    q = make_queue(kind, 8, org)
    for eid, c in ((0, 5), (1, 3), (2, 9)):
        q.insert(5, eid, c)
    assert [q.extract_min(5)[1] for _ in range(3)] == [3, 5, 9]
    assert q.extract_min(5) is None


@pytest.mark.parametrize("kind", KINDS)
def test_add_constant_shifts_drain(kind):
    org = [0, 1]
    q = make_queue(kind, 4, org)
    q.insert(3, 0, 5)
    q.insert(3, 1, 3)
    q.add_constant(3, -2)
    assert q.extract_min(3) == (1, 1)
    q.add_constant(3, 0)
    assert q.extract_min(3) == (0, 3)


@pytest.mark.parametrize("kind", KINDS)
def test_ties_break_by_edge_id(kind):
    org = [0, 1, 2]
    q = make_queue(kind, 4, org)
    q.insert(3, 2, 7)
    q.insert(3, 0, 7)
    q.insert(3, 1, 7)
    assert [q.extract_min(3)[0] for _ in range(3)] == [0, 1, 2]


@pytest.mark.parametrize("kind", KINDS)
def test_slots_are_independent(kind):
    org = [0, 1, 2, 3]
    q = make_queue(kind, 8, org)
    q.insert(5, 0, 9)
    q.insert(6, 1, 1)
    q.insert(5, 2, 4)
    q.add_constant(6, 10)
    assert drain(q, 5) == [(2, 4), (0, 9)]
    assert drain(q, 6) == [(1, 11)]


def test_matrix_dedups_same_origin():
    org = [3, 3]  # two parallel edges out of origin 3
    q = MatrixQueue(8, org, list(range(8)))
    q.insert(5, 0, 4)
    q.insert(5, 1, 2)
    assert q.extract_min(5) == (1, 2)
    assert q.extract_min(5) is None
    # cheaper-first insertion order must win too
    q2 = MatrixQueue(8, org, list(range(8)))
    q2.insert(5, 1, 2)
    q2.insert(5, 0, 4)
    assert q2.extract_min(5) == (1, 2)
    assert q2.extract_min(5) is None


def test_matrix_merge_takes_elementwise_min():
    org = [0, 0, 1]
    q = MatrixQueue(4, org, list(range(4)))
    q.insert(2, 0, 9)
    q.insert(3, 1, 4)   # same origin, cheaper in slot 3
    q.insert(3, 2, 6)
    q.merge(2, 3)
    assert q.extract_min(2) == (1, 4)
    assert q.extract_min(2) == (2, 6)
    assert q.extract_min(2) is None


def test_matrix_merge_respects_resolver():
    # two origins collapsed by a DSU join dedup on merge
    d = ContractionDSU(4)
    org = [0, 1]
    q = MatrixQueue(4, org, d.parent)
    q.insert(2, 0, 5)
    q.insert(3, 1, 3)
    d.join(0, 1)
    survivor = d.join(2, 3)
    q.merge(2, 3)
    assert q.extract_min(survivor) == (1, 3)
    assert q.extract_min(survivor) is None


def test_matrix_refuses_more_than_its_vertex_limit():
    # raised before any row is allocated
    with pytest.raises(ValueError, match="at most 10000 vertices"):
        MatrixQueue(10_001, [], list(range(10_001)))


@pytest.mark.parametrize("kind", KINDS)
def test_merge_with_empty_is_identity(kind):
    org = [0, 1]
    for flip in (False, True):
        q = make_queue(kind, 4, org)
        q.insert(2, 0, 2)
        q.insert(2, 1, 8)
        into, src = (3, 2) if flip else (2, 3)
        q.merge(into, src)
        assert q.extract_min(into) == (0, 2)
        assert q.extract_min(into) == (1, 8)
        assert q.extract_min(into) is None
        assert q.extract_min(src) is None


@pytest.mark.parametrize("kind", KINDS)
def test_merge_lands_in_surviving_slot(kind):
    # slot 1's DSU set is larger, so joining 0 into it keeps 1 as the
    # representative; the union must land there and slot 0 be emptied
    d = ContractionDSU(6)
    org = [4, 5]
    q = QUEUES[kind](6, org, d.parent)
    q.insert(0, 0, 3)
    q.insert(1, 1, 7)
    d.join(1, 2)
    assert d.join(0, 1) == 1
    q.merge(0, 1)
    assert drain(q, 0) == []
    assert drain(q, 1) == [(0, 3), (1, 7)]


def test_sil_merge_rebases_offsets():
    q = SilQueue(4, [0, 1], list(range(4)))
    q.insert(2, 0, 3)
    q.add_constant(2, -1)   # effective 2
    q.insert(3, 1, 5)
    q.add_constant(3, -2)   # effective 3
    q.merge(2, 3)
    assert q.extract_min(2) == (0, 2)
    assert q.extract_min(2) == (1, 3)
    assert q.extract_min(2) is None


def test_sil_counts_moves_from_smaller_side():
    q = SilQueue(4, list(range(12)), list(range(4)))
    for i in range(5):
        q.insert(2, i, i)
    q.insert(3, 10, 0)
    q.insert(3, 11, 1)
    q.merge(2, 3)
    assert q.moves == 2
    assert q.list_merge_scan == 7


def test_sil_move_bound_random_merges():
    # smaller-into-larger: total moves <= inserts * ceil(log2 inserts)
    rng = random.Random(99)
    q = SilQueue(64, list(range(64 * 8)), list(range(64)))
    slots = []
    inserts = 0
    eid = 0
    for v in range(64):
        for _ in range(rng.randint(1, 8)):
            q.insert(v, eid, rng.randint(-100, 100))
            eid += 1
            inserts += 1
        slots.append(v)
    rng.shuffle(slots)
    while len(slots) > 1:
        a = slots.pop(rng.randrange(len(slots)))
        b = slots.pop(rng.randrange(len(slots)))
        q.add_constant(a, rng.randint(-5, 5))
        q.merge(a, b)
        slots.append(a)
    assert q.moves <= inserts * math.ceil(math.log2(inserts))


def _run_sequence(seed, nops=30):
    """Drive all three strategies plus a dict oracle through one random op
    sequence; extraction results must agree exactly. Merges follow a real
    DSU join, so the union lands in whichever slot survives."""
    rng = random.Random(seed)
    cap = 64
    org = list(range(cap))      # distinct origin per edge id
    # slots are vertices cap.., apart from the origins, so joining two
    # slots never collapses two origins
    d = ContractionDSU(cap + 3)
    queues = {kind: cls(cap + 3, org, d.parent)
              for kind, cls in QUEUES.items()}
    model = {cap + k: {} for k in range(3)}
    next_id = 0

    for _ in range(nops):
        keys = sorted(model)
        op = rng.randrange(4)
        k = rng.choice(keys)
        if op == 0 and next_id < cap:
            c = rng.randint(-100, 100)
            for q in queues.values():
                q.insert(k, next_id, c)
            model[k][next_id] = c
            next_id += 1
        elif op == 1:
            got = {kind: q.extract_min(k) for kind, q in queues.items()}
            want = min(((c, e) for e, c in model[k].items()), default=None)
            want = None if want is None else (want[1], want[0])
            for kind in KINDS:
                assert got[kind] == want, (seed, kind)
            if want:
                del model[k][want[0]]
        elif op == 2:
            delta = rng.randint(-20, 20)
            for q in queues.values():
                q.add_constant(k, delta)
            model[k] = {e: c + delta for e, c in model[k].items()}
        elif op == 3 and len(keys) > 1:
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
    # ties; a few shifts and DSU-driven merges after loading check that the
    # loaded heaps also behave like inserted ones under merge
    rng = random.Random(9)
    for _ in range(300):
        g = random_instance(rng, 12, 60, -3, 3)
        d = ContractionDSU(g.n)
        loaded = QUEUES[kind](g.n, g.org, d.parent)
        loaded.load(g)
        inserted = QUEUES[kind](g.n, g.org, d.parent)
        for eid, (u, v, w) in enumerate(zip(g.org, g.tgt, g.w)):
            if v != g.root and u != v:
                inserted.insert(v, eid, w)
        for _ in range(rng.randint(0, g.n)):
            a, b = d.parent[rng.randrange(g.n)], d.parent[rng.randrange(g.n)]
            delta = rng.randint(-2, 2)
            if a == b:
                continue
            d.join(a, b)
            for q in (loaded, inserted):
                q.add_constant(a, delta)
                q.merge(a, b)
        for v in sorted(set(d.parent)):
            assert drain(loaded, v) == drain(inserted, v)
        assert loaded.counters() == inserted.counters()


def test_heap_meld_counter_moves_on_merge():
    q = LazyHeapQueue(4, list(range(8)), list(range(4)))
    for i in range(4):
        q.insert(2, i, i)
        q.insert(3, 4 + i, i)
    q.merge(2, 3)
    assert q.melds > 0


def test_matrix_scan_counter_counts_cells():
    org = list(range(6))
    q = MatrixQueue(7, org, list(range(7)))
    for i in range(6):
        q.insert(6, i, 10 - i)
    before = q.cells_scanned
    q.extract_min(6)
    assert q.cells_scanned > before
