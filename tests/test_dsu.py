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
    # an edge of weight 10 into vertex 1; ggst shifts a set by writing
    # its representative's shift
    d = ContractionDSU(2)
    assert 10 + d.offset(1) == 10
    d.shift[1] += 0
    assert 10 + d.offset(1) == 10
    d.shift[1] -= 3
    assert 10 + d.offset(1) == 7


def test_offset_survives_join_with_fresh_set():
    # offsets applied before a join must not leak into the fresh set
    d = ContractionDSU(3)
    d.shift[0] -= 1
    d.shift[0] -= 1
    r = d.join([0, 1])
    # edges of weight 10 into the old set's vertex 0 and the fresh vertex 1
    assert 10 + d.offset(0) == 8
    assert 10 + d.offset(1) == 10
    d.shift[r] -= 5
    assert 10 + d.offset(0) == 3
    assert 10 + d.offset(1) == 5


def test_join_rejects_a_non_representative():
    d = ContractionDSU(3)
    r = d.join([0, 1])
    loser = 1 - r
    before = _state(d)
    for members in ([loser, 2], [2, loser]):
        with pytest.raises(ValueError, match="representative"):
            d.join(members)
        assert _state(d) == before


def test_join_keeps_the_first_of_the_largest_and_every_offset():
    # sets {0}, {1, 2, 3}, {4, 5} and {6, 7, 8}, each shifted, joined with
    # a smaller set first: the first of the two size-3 sets survives
    d = ContractionDSU(10)
    a, b, c, e = d.join([0]), d.join([1, 2, 3]), d.join([4, 5]), \
        d.join([6, 7, 8])
    assert (a, b, c, e) == (0, 1, 4, 6)
    for r, delta in ((a, -2), (b, 5), (c, -7), (e, 3)):
        d.shift[r] += delta
    d.off[5] += 1                 # a member off its representative's value
    offsets = [d.offset(v) for v in range(10)]
    visits = d.visits
    assert d.join([a, b, c, e]) == b
    assert [d.offset(v) for v in range(10)] == offsets
    assert d.visits - visits == 1 + 2 + 3     # the non-survivors' sizes
    assert d.size[b] == 9 and set(d.parent[:9]) == {b} and d.parent[9] == 9
    ring, v = [b], d.nxt[b]
    while v != b:
        ring.append(v)
        v = d.nxt[v]
    assert sorted(ring) == list(range(9))
    _assert_frame(d)
    # a tie among singletons keeps the first, as in path order
    assert d.join([9, b]) == b
    d2 = ContractionDSU(3)
    assert d2.join([2, 0, 1]) == 2 and d2.visits == 2


def test_offset_idempotent_after_joins():
    d = ContractionDSU(8)
    for v in range(7):
        d.join([d.find(v), d.find(v + 1)])
    d.shift[d.find(0)] -= 4
    first = d.offset(7)
    assert first == -4 and d.offset(7) == first
    assert d.find(d.find(7)) == d.find(7)


def _assert_frame(d: ContractionDSU):
    # off is relative to the representative; only a representative shifts
    for v, r in enumerate(d.parent):
        if r == v:
            assert d.off[v] == 0, "representative's own off is not 0"
        else:
            assert d.shift[v] == 0, "shift left on a non-representative"


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
            reps = rng.sample(sorted(members), min(len(members),
                                                   rng.randint(1, 4)))
            r = d.join(reps)
            assert r == max(reps, key=lambda x: (len(members[x]),
                                                 -reps.index(x)))
            for x in reps:
                if x != r:
                    members[r] = members[r] + members.pop(x)
            assert all(d.find(v) == r for v in members[r])
        elif op == 1:
            r = rng.choice(list(members))
            delta = rng.randint(-30, 30)
            d.shift[r] += delta
            for v in members[r]:
                shadow[v] += delta
        else:
            v = rng.randrange(n)
            w = rng.randint(-100, 100)
            assert w + d.offset(v) == w + shadow[v]
        _assert_frame(d)
    for v in range(n):
        assert 5 + d.offset(v) == 5 + shadow[v]


def _state(d: ContractionDSU):
    return (d.parent[:], d.size[:], d.nxt[:], d.off[:], d.shift[:], d.visits)


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
            join2(d, a, b)
            la, lb = label[a], label[b]
            label = [la if x == lb else x for x in label]
        elif op == 1:
            v = rng.randrange(n)
            delta = rng.randint(-20, 20)
            d.shift[d.find(v)] += delta
            lv = label[v]
            for x in range(n):
                if label[x] == lv:
                    shadow[x] += delta
        else:
            v = rng.randrange(n)
            before = _state(d)
            assert d.find(v) == d.parent[v]
            assert d.offset(v) == shadow[v]
            assert _state(d) == before
        assert all(d.parent[d.parent[v]] == d.parent[v] for v in range(n))
        assert all((d.find(u) == d.find(v)) == (label[u] == label[v])
                   for u in range(n) for v in range(n))
        for v in range(n):
            assert d.offset(v) == shadow[v]
        _assert_frame(d)


def join2(d, a: int, b: int) -> None:
    """Join a's and b's sets: PlainDSU's join of two vertices, or
    ContractionDSU's join of their distinct representatives."""
    if isinstance(d, ContractionDSU):
        ra, rb = d.find(a), d.find(b)
        if ra != rb:
            d.join([ra, rb])
    else:
        d.join(a, b)


@pytest.mark.parametrize("cls", [PlainDSU, ContractionDSU])
def test_join_relabels_at_most_n_log_n(cls):
    # balanced pairwise merges: every round relabels half of all vertices
    n = 2 ** 14
    d = cls(n)
    step = 1
    while step < n:
        for v in range(0, n, 2 * step):
            join2(d, v, v + step)
        step *= 2
    assert d.visits == (n // 2) * 14
    assert d.counters() == {"dsu_visits": (n // 2) * 14}
    assert len({d.find(v) for v in range(n)}) == 1

    rng = random.Random(2718)
    n = 100_000
    d = cls(n)
    for _ in range(2 * n):
        join2(d, rng.randrange(n), rng.randrange(n))
    assert d.visits <= n * math.log2(n)
    d.visits = 0
    for _ in range(1000):
        d.find(rng.randrange(n))
    assert d.visits == 0
