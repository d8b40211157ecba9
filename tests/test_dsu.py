import math
import random

import pytest

from dmst import ContractionDSU, PlainDSU


def test_plain_fresh_singletons():
    d = PlainDSU(3)
    assert d.find(2) == 2
    assert d.find(0) == 0


def test_plain_join_basics():
    d = PlainDSU(4)
    assert d.join(0, 0) == 0
    d.join(0, 1)
    assert d.find(0) == d.find(1)
    d.join(1, 2)
    assert d.find(0) == d.find(1) == d.find(2)
    assert d.find(3) != d.find(0)


def test_plain_union_by_size():
    d = PlainDSU(4)
    d.join(0, 1)
    r = d.join(0, 2)  # size-2 set absorbs singleton
    assert d.join(r, 3) == r


def test_plain_single_set_after_n_minus_1_joins():
    d = PlainDSU(10)
    for v in range(9):
        d.join(v, v + 1)
    assert len({d.find(v) for v in range(10)}) == 1


def test_offset_singleton():
    # an edge of weight 10 into vertex 1
    d = ContractionDSU(2)
    assert 10 + d.find_offset(1)[1] == 10
    d.add_offset(1, 0)
    assert 10 + d.find_offset(1)[1] == 10
    d.add_offset(1, -3)
    assert 10 + d.find_offset(1)[1] == 7


def test_offset_survives_join_with_fresh_set():
    # offsets applied before a join must not leak into the fresh set
    d = ContractionDSU(3)
    d.add_offset(0, -1)
    d.add_offset(0, -1)
    r = d.join(0, 1)
    # edges of weight 10 into the old set's vertex 0 and the fresh vertex 1
    assert 10 + d.find_offset(0)[1] == 8
    assert 10 + d.find_offset(1)[1] == 10
    d.add_offset(r, -5)
    assert 10 + d.find_offset(0)[1] == 3
    assert 10 + d.find_offset(1)[1] == 5


def test_add_offset_rejects_non_representative():
    d = ContractionDSU(2)
    r = d.join(0, 1)
    loser = 1 - r
    with pytest.raises(ValueError, match="representative"):
        d.add_offset(loser, -1)


def test_find_offset_idempotent_after_compression():
    d = ContractionDSU(8)
    for v in range(7):
        d.join(v, v + 1)
    d.add_offset(d.find(0), -4)
    first = d.find_offset(7)
    assert d.find_offset(7) == first
    assert d.find(d.find(7)) == d.find(7)


def test_offsets_against_shadow_oracle():
    # naive shadow: explicit per-vertex offset updated on every op
    rng = random.Random(314)
    n = 64
    d = ContractionDSU(n)
    shadow = [0] * n
    members = {v: [v] for v in range(n)}
    for _ in range(10_000):
        op = rng.randrange(3)
        if op == 0:
            a, b = rng.randrange(n), rng.randrange(n)
            ra, rb = d.find(a), d.find(b)
            r = d.join(a, b)
            if ra != rb:
                loser = ra if r == rb else rb
                members[r] = members[r] + members[loser]
                del members[loser]
            assert r == d.find(a) == d.find(b)
        elif op == 1:
            r = rng.choice(list(members))
            delta = rng.randint(-30, 30)
            d.add_offset(r, delta)
            for v in members[r]:
                shadow[v] += delta
        else:
            v = rng.randrange(n)
            w = rng.randint(-100, 100)
            assert w + d.find_offset(v)[1] == w + shadow[v]
    for v in range(n):
        assert 5 + d.find_offset(v)[1] == 5 + shadow[v]


def _state(d: ContractionDSU):
    return (d.parent[:], d.size[:], d.nxt[:], d.off[:], d.visits)


def test_sets_stay_flat_and_finds_keep_state():
    # naive shadow offsets as in test_offsets_against_shadow_oracle; after
    # every operation all sets are flat and a find changes nothing
    rng = random.Random(1618)
    n = 40
    d = ContractionDSU(n)
    shadow = [0] * n
    label = list(range(n))  # naive component labels
    for _ in range(4000):
        op = rng.randrange(4)
        if op == 0:
            a, b = rng.randrange(n), rng.randrange(n)
            d.join(a, b)
            la, lb = label[a], label[b]
            label = [la if x == lb else x for x in label]
        elif op == 1:
            v = rng.randrange(n)
            delta = rng.randint(-20, 20)
            d.add_offset(d.find(v), delta)
            lv = label[v]
            for x in range(n):
                if label[x] == lv:
                    shadow[x] += delta
        else:
            v = rng.randrange(n)
            before = _state(d)
            rep = d.find(v)
            assert d.find_offset(v) == (rep, shadow[v])
            assert _state(d) == before
        assert all(d.parent[d.parent[v]] == d.parent[v] for v in range(n))
        assert all((d.find(u) == d.find(v)) == (label[u] == label[v])
                   for u in range(n) for v in range(n))
        for v in range(n):
            assert d.find_offset(v)[1] == shadow[v]


@pytest.mark.parametrize("cls", [PlainDSU, ContractionDSU])
def test_join_relabels_at_most_n_log_n(cls):
    # balanced pairwise merges: every round relabels half of all vertices
    n = 2 ** 14
    d = cls(n)
    step = 1
    while step < n:
        for v in range(0, n, 2 * step):
            d.join(v, v + step)
        step *= 2
    assert d.visits == (n // 2) * 14
    assert d.counters() == {"dsu_visits": (n // 2) * 14}
    assert len({d.find(v) for v in range(n)}) == 1

    rng = random.Random(2718)
    n = 100_000
    d = cls(n)
    for _ in range(2 * n):
        d.join(rng.randrange(n), rng.randrange(n))
    assert d.visits <= n * math.log2(n)
    d.visits = 0
    for _ in range(1000):
        d.find(rng.randrange(n))
    assert d.visits == 0
