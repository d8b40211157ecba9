"""Graph model, instance text format, weight sampling, super-root preparation.

The text format is a header line ``n m r`` followed by ``m`` lines ``u v w``.
All vertex indices are 0-based. Self-loops and parallel edges are allowed;
solvers cope with both.
"""

from __future__ import annotations

import math
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


# edge lines per chunk: a chunk's token strings live at once, so the chunk
# stays small next to the columns it fills (at m = 48000, 4096 lines raised
# the parse peak by about 1 MB and were no faster)
PARSE_CHUNK = 256


# str.splitlines also breaks a line at these, which str.split reads as blanks
_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_AS_SPACES = str.maketrans(_BREAKS, " " * len(_BREAKS))


def _lines(text: str) -> list[str]:
    """text's lines, ended by \\n, \\r\\n or \\r only, so a ParseError counts
    those; other breaks become spaces, copying only text that has them."""
    if any(c in text for c in _BREAKS):
        text = text.translate(_AS_SPACES)
    return text.splitlines()


def parse_edge_list(text: str) -> Graph:
    """Parse the ``n m r`` edge-list format.

    The header is the first non-blank line. The edge lines after it are
    read ``PARSE_CHUNK`` at a time: :func:`_columns` takes a well-formed
    chunk whole, and a chunk it refuses is read line by line, so every
    ParseError names its physical line: malformed lines, out-of-range
    indices, out-of-bound weights and a wrong edge count.
    """
    lines = _lines(text)
    hno = next((i for i, raw in enumerate(lines, 1) if raw.split()), 0)
    if not hno:
        raise ParseError("missing header, line 1")
    head = lines[hno - 1].split()
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
    cols = ((org, 0, n - 1), (tgt, 0, n - 1), (ws, -W_LIMIT, W_LIMIT))
    for start in range(hno, len(lines), PARSE_CHUNK):
        chunk = lines[start:start + PARSE_CHUNK]
        if _columns(chunk, cols):
            continue
        for lineno, raw in enumerate(chunk, start + 1):
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
        raise ParseError(f"expected {m} edges, found {len(ws)}, line {len(lines) + 1}")
    return Graph(n, root, org, tgt, ws)


def _columns(chunk: list[str],
             cols: tuple[tuple[list[int], float, float], ...]) -> bool:
    """Read ``chunk`` whole into the columns: ``cols`` holds one
    ``(column, lo, hi)`` per line position. Append every line's integers
    and return True if each line holds ``len(cols)`` of them, each within
    its column's bounds; else leave the columns as they were and return
    False, so the caller reads the chunk line by line.

    The k lines are joined by k - 1 ``;`` tokens into one string, and with
    c = ``len(cols)`` column j is every (c + 1)-th token from j. If there
    are (c + 1)k - 1 tokens and ``int`` takes every column token, no ``;``
    sits in a column, so the k - 1 separators fill the positions c,
    2c + 1, ... in order and every line has c tokens. So a blank line, a
    line of another width or a comment (its first token is no integer) is
    refused. The new values are then range-checked with min/max. A chunk
    holding ``_`` is refused, as :func:`_parse_int` refuses the token.
    """
    text = " ; ".join(chunk)
    toks = text.split()
    step = len(cols) + 1
    if "_" in text or len(toks) != step * len(chunk) - 1:
        return False
    k = len(cols[0][0])
    try:
        for j, (col, lo, hi) in enumerate(cols):
            col += map(int, toks[j::step])
            new = col[k:]
            if min(new) < lo or max(new) > hi:
                raise ValueError
    except ValueError:
        for col, _, _ in cols:
            del col[k:]
        return False
    return True


def serialize(graph: Graph) -> str:
    out = [f"{graph.n} {len(graph.w)} {graph.root}"]
    out.extend(f"{u} {v} {w}" for u, v, w in zip(graph.org, graph.tgt, graph.w))
    return "\n".join(out) + "\n"


def parse_plain_edge_list(text: str) -> Graph:
    """Parse a headerless ``u v`` list (konect style).

    Raw vertex labels are arbitrary non-negative integers and get renumbered
    densely in sorted label order. Lines starting with ``%`` or ``#`` are
    skipped, and tokens after the second are ignored. Lines are read
    ``PARSE_CHUNK`` at a time by the same :func:`_columns` as
    :func:`parse_edge_list`, two columns wide with no upper bound; a chunk
    it refuses (a comment, a blank line, another token count, a negative
    label) is read line by line, so every ParseError names its line. All
    weights are 0; run :func:`sample_weights` afterwards. The root defaults
    to vertex 0 and is a placeholder until :func:`attach_super_root`
    designates a real one.
    """
    lines = _lines(text)
    us: list[int] = []
    vs: list[int] = []
    cols = ((us, 0, math.inf), (vs, 0, math.inf))
    for start in range(0, len(lines), PARSE_CHUNK):
        chunk = lines[start:start + PARSE_CHUNK]
        if _columns(chunk, cols):
            continue
        for lineno, raw in enumerate(chunk, start + 1):
            s = raw.strip()
            if not s or s[0] in "%#":
                continue
            parts = s.split()
            if len(parts) < 2:
                raise ParseError(f"edge line must be 'u v', line {lineno}")
            u = _parse_int(parts[0], lineno)
            v = _parse_int(parts[1], lineno)
            if u < 0 or v < 0:
                raise ParseError(f"index out of range, line {lineno}")
            us.append(u)
            vs.append(v)
    del lines  # the line strings are not needed while renumbering
    labels = sorted({*us, *vs})
    dense = dict(zip(labels, range(len(labels))))
    return Graph(len(labels), 0, list(map(dense.__getitem__, us)),
                 list(map(dense.__getitem__, vs)), [0] * len(us))


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
