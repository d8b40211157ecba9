"""Graph model, instance text formats, weight sampling, super-root preparation.

The instance format is a header line ``n m r`` followed by ``m`` lines
``u v w``; konect text is ``u v`` lines. All vertex indices are 0-based.
Self-loops and parallel edges are allowed; solvers cope with both.

Both parsers read the text in blocks of about ``PARSE_BLOCK`` characters,
each cut just after a ``\\n``, so no ``\\r\\n`` is split and only one
block's tokens live at a time. :func:`_columns` takes a well-formed block
whole; a block it refuses is read line by line, its lines numbered on from
the blocks before, so a ParseError names its physical line. A line ends at
``\\n``, ``\\r\\n`` or ``\\r`` only.
"""

from __future__ import annotations

import math
import re
import struct
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, compress
from typing import NamedTuple

from .errors import ParseError

# Bound on input weight magnitudes; it validates outside input. Only
# tarjan-matrix stores int64 keys, and its queue checks its own key bound;
# the other configurations hold Python ints.
W_LIMIT = 2**32


class Edge(NamedTuple):
    origin: int
    target: int
    weight: int
    id: int


@dataclass(frozen=True)
class Graph:
    """Immutable directed multigraph with a designated root.

    Edge ``i`` runs from ``org[i]`` to ``tgt[i]`` with weight ``w[i]``; ids
    are dense in input order. The three columns are the graph: solvers
    read them directly and nothing mutates them, so derive a changed graph
    with ``dataclasses.replace``. ``orig_ids`` is only set by
    :func:`attach_super_root` and maps the renumbered vertices back to the
    input vertex indices.
    """

    n: int
    root: int
    org: list[int]
    tgt: list[int]
    w: list[int]
    orig_ids: tuple[int, ...] | None = None

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """``Edge`` tuples with ``edges[i].id == i``; built once, on first use."""
        return tuple(map(Edge, self.org, self.tgt, self.w, range(len(self.w))))


def _parse_int(tok: str, lineno: int) -> int:
    try:
        if "_" in tok:  # int alone reads "5_0" as 50
            raise ValueError
        return int(tok)
    except ValueError:
        raise ParseError(f"not an integer {tok!r}, line {lineno}") from None


# characters per block, which runs on to the next \n: a block's token
# strings live at once, so it stays small next to the columns it fills
PARSE_BLOCK = 4096

# str.splitlines also breaks a line at these, which str.split reads as blanks
_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_AS_SPACES = str.maketrans(_BREAKS, " " * len(_BREAKS))
# blank lines, then the header line as group 1, then its line end
_HEAD = re.compile(r"(?:[^\S\r\n]*(?:\r\n?|\n))*([^\r\n]*)(?:\r\n?|\n)?")


def _line_count(text: str) -> int:
    """How many lines ``text`` holds, ended by \\n, \\r\\n or \\r."""
    lone_cr = text.count("\r") - text.count("\r\n") if "\r" in text else 0
    return text.count("\n") + lone_cr + (text[-1:] not in "\r\n")


def _read(text: str, cols: tuple, start: int = 0,
          lineno: int = 1) -> Iterator[tuple[int, str]]:
    """Read ``text[start:]``, where line ``lineno`` begins, into the columns
    of :func:`_columns` block by block; yield ``(lineno, line)`` for each
    line of a block it refuses, with the other breaks read as blanks."""
    while start < len(text):
        end = text.find("\n", start + PARSE_BLOCK) + 1 or len(text)
        block = text[start:end]
        if not _columns(block, cols):
            yield from enumerate(block.translate(_AS_SPACES).splitlines(), lineno)
        lineno += _line_count(block)
        start = end


def parse_edge_list(text: str) -> Graph:
    """Parse the ``n m r`` edge-list format.

    The header is the first non-blank line. The text after it is read by
    :func:`_read` into three columns, bounded by n and ``W_LIMIT``. A
    ParseError names the line of a malformed line, an out-of-range index
    or an out-of-bound weight; a wrong edge count names the line after
    the last.
    """
    head_match = _HEAD.match(text)
    head = head_match[1].split()
    if not head:
        raise ParseError("missing header, line 1")
    hno = _line_count(text[:head_match.start(1)]) + 1
    if len(head) != 3:
        raise ParseError(f"header must be 'n m r', line {hno}")
    n, m, root = (_parse_int(t, hno) for t in head)
    if n < 0 or m < 0:
        raise ParseError(f"negative count in header, line {hno}")
    if not (n == 0 or 0 <= root < n):
        raise ParseError(f"root out of range, line {hno}")

    org: list[int] = []
    tgt: list[int] = []
    ws: list[int] = []
    cols = ((org, int, 0, n - 1), (tgt, int, 0, n - 1),
            (ws, int, -W_LIMIT, W_LIMIT))
    for lineno, raw in _read(text, cols, head_match.end(), hno + 1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ParseError(f"edge line must be 'u v w', line {lineno}")
        u, v, w = (_parse_int(t, lineno) for t in parts)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"index out of range, line {lineno}")
        if abs(w) > W_LIMIT:
            raise ParseError(f"weight out of bound, line {lineno}")
        org.append(u)
        tgt.append(v)
        ws.append(w)
    if len(ws) != m:
        raise ParseError(f"expected {m} edges, found {len(ws)}, line {_line_count(text) + 1}")
    return Graph(n, root, org, tgt, ws)


def _columns(block: str, cols: tuple) -> bool:
    """Read ``block`` whole into the columns: ``cols`` holds one
    ``(column, convert, lo, hi)`` per line position. If each line holds
    ``len(cols)`` tokens, each taken by its column's ``convert`` to a value
    in ``[lo, hi]``, append the values and return True; else leave the
    columns as they were and return False.

    Each ``\\n`` becomes a ``;`` token. With c = ``len(cols)``, k of them
    and l lines (k + 1 if the last has no ``\\n``), the block must split
    into cl + k tokens with a ``;`` at each (c + 1)-th place from c. As its
    own text holds no ``;``, these are the k line ends, so every line holds
    c tokens. It may hold no ``_``, which ``int`` takes, nor a lone
    ``\\r``: that ends a line, but ``str.split`` reads it as a blank, so
    ``0 1\\r5`` would pass as one line of three. A column is converted in
    full before the next.
    """
    c = len(cols)
    k = block.count("\n")
    toks = block.replace("\n", " ; ").split()
    if (";" in block or "_" in block
            or "\r" in block and block.count("\r") != block.count("\r\n")
            or len(toks) != c * (k + (block[-1] != "\n")) + k
            or toks[c::c + 1].count(";") != k):
        return False
    size = len(cols[0][0])
    try:
        for j, (col, convert, lo, hi) in enumerate(cols):
            col += map(convert, toks[j::c + 1])
            new = col[size:]
            if min(new) < lo or max(new) > hi:
                raise ValueError
    except ValueError:
        for col, *_ in cols:
            del col[size:]
        return False
    return True


def serialize(graph: Graph) -> str:
    out = [f"{graph.n} {len(graph.w)} {graph.root}"]
    out.extend(f"{u} {v} {w}" for u, v, w in zip(graph.org, graph.tgt, graph.w))
    return "\n".join(out) + "\n"


class _Labels(dict):
    """Label spelling -> its value, so ``int`` runs once per spelling."""

    def __missing__(self, tok: str) -> int:
        self[tok] = value = int(tok)
        return value


def parse_plain_edge_list(text: str) -> Graph:
    """Parse a headerless ``u v`` list (konect style).

    Raw vertex labels are arbitrary non-negative integers and get renumbered
    densely in sorted label order, so ``7``, ``007`` and ``+7`` are one
    vertex. Lines starting with ``%`` or ``#`` are skipped, and tokens after
    the second are ignored. :func:`_read` reads two columns of label values
    through :class:`_Labels`. A block refused midway may leave spellings in
    the labels: each labels an edge line, as a comment's first token is no
    integer and the second column is read after the first, or the block's
    line-by-line read raises. All weights are 0; run :func:`sample_weights`
    afterwards. The root is vertex 0, a placeholder until
    :func:`attach_super_root` designates a real one.
    """
    labels = _Labels()
    us: list[int] = []
    vs: list[int] = []
    label = (labels.__getitem__, 0, math.inf)
    for lineno, raw in _read(text, ((us, *label), (vs, *label))):
        s = raw.strip()
        if not s or s[0] in "%#":
            continue
        parts = s.split()
        if len(parts) < 2:
            raise ParseError(f"edge line must be 'u v', line {lineno}")
        if min(_parse_int(parts[0], lineno), _parse_int(parts[1], lineno)) < 0:
            raise ParseError(f"index out of range, line {lineno}")
        us.append(labels[parts[0]])
        vs.append(labels[parts[1]])
    values = sorted(set(labels.values()))
    del labels, label
    dense = dict(zip(values, range(len(values))))
    del values
    # each label column is freed as its renumbered one is built
    us = list(map(dense.__getitem__, us))
    vs = list(map(dense.__getitem__, vs))
    return Graph(len(dense), 0, us, vs, [0] * len(us))


# SplitMix64's rule: the state increment, the finalizer's multipliers and
# the 64-bit mask, as module constants, which read faster than attributes
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

# draws per block of the lane kernel, each in a 128-bit lane, so a block's
# temporaries are 16 KB ints (at 48 000 draws, blocks of 1024 / 4096 /
# 16384 / 65536 lanes took 7.2 / 8.0 / 10.1 / 14.1 ms)
LANES = 1024
# over LANES lanes: 1 in each lane; lane i's increment (i + 1) * gamma
# mod 2**64; and 2**64 - 1 in each lane
_ONES = int.from_bytes((b"\1" + bytes(15)) * LANES, "little")
_STEPS = int.from_bytes(struct.pack(f"<{2 * LANES}Q", *chain.from_iterable(
    ((i * _GAMMA) & _MASK64, 0) for i in range(1, LANES + 1))), "little")
_LANE_MASK = _ONES * _MASK64


def _lane_blocks(s: int, count: int) -> Iterator[tuple[int, ...]]:
    """SplitMix64's next ``count`` outputs from state ``s``, in tuples of
    up to ``LANES``. A block's k states ``s + i * gamma`` (i = 1..k) sit
    in one int, little-endian lanes of 128 bits; the finalizer runs once
    on that int, and each lane's low 64 bits are its output."""
    ones, steps, mask = _ONES, _STEPS, _LANE_MASK
    for start in range(0, count, LANES):
        k = min(LANES, count - start)
        if k < LANES:  # the last block: its low k lanes
            low = (1 << (128 * k)) - 1
            ones, steps, mask = ones & low, steps & low, mask & low
        # every lane is masked to 64 bits before a multiply, so its
        # product stays below 2**128 and carries into no other lane; the
        # bits a right shift pulls down from the next lane land above bit
        # 64, where the mask, or at the end the read, drops them
        x = (s * ones + steps) & mask
        x = ((x ^ (x >> 30)) & mask) * _MIX1 & mask
        x = ((x ^ (x >> 27)) & mask) * _MIX2 & mask
        x ^= x >> 31
        yield struct.unpack(f"<{2 * k}Q", x.to_bytes(16 * k, "little"))[::2]
        s = (s + k * _GAMMA) & _MASK64


class SplitMix64:
    """Deterministic 64-bit generator.

    State advances by the fixed increment 0x9E3779B97F4A7C15 modulo 2**64;
    each output runs the xorshift-multiply finalizer with constants
    0xBF58476D1CE4E5B9 and 0x94D049BB133111EB. The rule is pinned so that
    sequences are bit-identical across platforms and versions.

    Output i after state s is the finalizer of ``s + i * gamma``, so
    draws need not run one after another. :meth:`uniform` and the raw
    draws of :meth:`_raw` compute them in blocks of ``LANES`` (1024): one
    big int of 16 KB holds a block's states, one 128-bit lane each, and
    one pass of the finalizer's shifts, xors and multiplies over that int
    serves the whole block. Each lane is masked to 64 bits before each
    multiply, so a 64 x 64-bit product fits its own lane and no carry
    reaches the next.
    The lanes are read back little-endian through ``struct``, the same on
    every host. :meth:`next_u64` and :meth:`below` stay one draw at a time.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = z = (self._state + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform value in [0, bound). Plain modulo; the bias at 64 bits is
        far below anything a frequency test at our sample sizes can see."""
        return self.next_u64() % bound

    def uniform(self, count: int, low: int, high: int) -> list[int]:
        """``count`` draws ``low + below(high - low + 1)``, in order: the
        values and the state after are those of as many calls. Computed
        ``LANES`` draws at a time by the lane kernel; a span of 0 raises
        ZeroDivisionError with the state unmoved."""
        span = high - low + 1
        s = self._state
        out = [low + z % span
               for z in chain.from_iterable(_lane_blocks(s, count))]
        self._state = (s + len(out) * _GAMMA) & _MASK64
        return out

    def _raw(self, count: int) -> Iterator[int]:
        """The next ``count`` outputs of :meth:`next_u64`, lazily, by the
        lane kernel; the state moves past them now."""
        s = self._state
        self._state = (s + count * _GAMMA) & _MASK64
        return chain.from_iterable(_lane_blocks(s, count))


def sample_weights(graph: Graph, seed: int, max_w: int) -> Graph:
    """Replace every weight with a uniform draw from [1, max_w].

    Draws come from SplitMix64 seeded with ``seed``, one per edge in id
    order, so the result is reproducible bit for bit.
    """
    if max_w < 1:
        raise ValueError("max_w must be at least 1")
    return replace(graph, w=SplitMix64(seed).uniform(len(graph.w), 1, max_w))


def weak_components(n: int, org: list[int], tgt: list[int]) -> list[int]:
    """Component label per vertex, ignoring edge direction: the smallest
    vertex index in its component.

    A union-find on one parent list, with path halving, that links the
    larger root under the smaller, so every root is its set's smallest
    vertex and every parent is at most its child. One pass in index order
    then points each vertex at its root: its parent's entry is final.
    """
    parent = list(range(n))
    for u, v in zip(org, tgt):
        while u != parent[u]:
            parent[u] = u = parent[parent[u]]
        while v != parent[v]:
            parent[v] = v = parent[parent[v]]
        if u < v:
            parent[v] = u
        elif v < u:
            parent[u] = v
    for v in range(n):
        parent[v] = parent[parent[v]]
    return parent


def attach_super_root(graph: Graph) -> Graph:
    """Restrict to the largest weakly connected component and add a fresh
    root r' = n with an edge (r', v, W_INF) to every retained vertex.

    W_INF = (max input |w| + 1) * n where n is the retained vertex count, so
    a super-root edge is picked only when nothing else can reach a vertex.
    Retained vertices are renumbered densely in old index order; the result
    carries the old indices in ``orig_ids``. Ties between equal-sized
    components go to the one containing the smallest vertex index.
    """
    if graph.n == 0:
        raise ValueError("empty graph")
    org, tgt, w = graph.org, graph.tgt, graph.w
    comp = weak_components(graph.n, org, tgt)
    sizes = [0] * graph.n
    for c in comp:
        sizes[c] += 1
    # max keeps the first of equal sizes: the smallest label
    best = max(range(graph.n), key=sizes.__getitem__)
    keep = [v for v, c in enumerate(comp) if c == best]
    dense = [0] * graph.n
    for new, old in enumerate(keep):
        dense[old] = new
    nk = len(keep)

    max_abs = max(map(abs, w), default=0)
    w_inf = (max_abs + 1) * nk

    # an edge lies in its origin's component
    kept = [comp[u] == best for u in org]
    return Graph(nk + 1, nk,
                 [*map(dense.__getitem__, compress(org, kept)), *[nk] * nk],
                 [*map(dense.__getitem__, compress(tgt, kept)), *range(nk)],
                 [*compress(w, kept), *[w_inf] * nk],
                 orig_ids=tuple(keep))
