"""Graph model, instance text format, weight sampling, super-root preparation.

The text format is a header line ``n m r`` followed by ``m`` lines ``u v w``.
All vertex indices are 0-based. Self-loops and parallel edges are allowed;
solvers cope with both.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, NamedTuple

from .dsu import PlainDSU
from .errors import ParseError

# Weights must stay small enough that a weight plus n accumulated offsets of
# input magnitude fits a signed 64-bit value. Large vertex counts therefore
# demand a tighter weight range.
W_LIMIT = 2**32
W_LIMIT_BIG_N = 2**24
N_SOFT_LIMIT = 2**20


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
        return int(tok)
    except ValueError:
        raise ParseError(f"not an integer {tok!r}, line {lineno}") from None


# edge lines per bulk-parse chunk: a chunk's token strings live at once, so
# the chunk stays small next to the columns it fills (at m = 48000, 4096
# lines raised the parse peak by about 1 MB and were no faster)
PARSE_CHUNK = 256


def parse_edge_list(text: str) -> Graph:
    """Parse the ``n m r`` edge-list format.

    Raises ParseError naming the offending line for malformed lines,
    out-of-range indices, and out-of-bound weights. Well-formed text takes
    a columnar fast path; anything it does not accept goes through the
    line parser, which gives the same graph or names the line at fault.
    """
    lines = text.splitlines()
    graph = _parse_bulk(lines)
    return graph if graph is not None else _parse_lines(lines)


def _parse_bulk(lines: list[str]) -> Graph | None:
    """The graph of a header on the first line followed by exactly ``m``
    edge lines of three in-range integers each, or None for anything else.

    Edge lines are tokenized a chunk at a time as one string, the k lines
    joined by k - 1 ``;`` tokens, and the columns are every fourth token
    from 0, 1 and 2. If there are 4k - 1 tokens and ``int`` takes every
    column token, no ``;`` sits in a column, so the k - 1 separators fill
    the positions 3, 7, ... in order and every line has three tokens. The
    columns are then range-checked with min/max.
    """
    head = lines[0].split() if lines else ()
    if len(head) != 3:
        return None
    try:
        n, m, root = map(int, head)
    except ValueError:
        return None
    if n < 0 or m < 0 or not (n == 0 or 0 <= root < n) or len(lines) != m + 1:
        return None
    w_limit = W_LIMIT_BIG_N if n > N_SOFT_LIMIT else W_LIMIT
    org: list[int] = []
    tgt: list[int] = []
    ws: list[int] = []
    try:
        for start in range(1, m + 1, PARSE_CHUNK):
            chunk = lines[start:start + PARSE_CHUNK]
            toks = " ; ".join(chunk).split()
            if len(toks) != 4 * len(chunk) - 1:
                return None
            org += map(int, toks[0::4])
            tgt += map(int, toks[1::4])
            ws += map(int, toks[2::4])
    except ValueError:
        return None
    if m and (min(org) < 0 or max(org) >= n or min(tgt) < 0 or max(tgt) >= n
              or min(ws) < -w_limit or max(ws) > w_limit):
        return None
    return Graph(n, root, org, tgt, ws)


def _parse_lines(lines: list[str]) -> Graph:
    """Parse line by line; every ParseError names its physical line."""
    # the header is the first non-blank line; hno is its physical number
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
    w_limit = W_LIMIT_BIG_N if n > N_SOFT_LIMIT else W_LIMIT

    org, tgt, ws = [], [], []
    for lineno, raw in enumerate(lines[hno:], hno + 1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ParseError(f"edge line must be 'u v w', line {lineno}")
        u = _parse_int(parts[0], lineno)
        v = _parse_int(parts[1], lineno)
        w = _parse_int(parts[2], lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"index out of range, line {lineno}")
        if abs(w) > w_limit:
            raise ParseError(f"weight out of bound, line {lineno}")
        org.append(u)
        tgt.append(v)
        ws.append(w)
    if len(ws) != m:
        raise ParseError(f"expected {m} edges, found {len(ws)}, line {len(lines) + 1}")
    return Graph(n, root, org, tgt, ws)


def serialize(graph: Graph) -> str:
    out = [f"{graph.n} {len(graph.w)} {graph.root}"]
    out.extend(f"{u} {v} {w}" for u, v, w in zip(graph.org, graph.tgt, graph.w))
    return "\n".join(out) + "\n"


def parse_plain_edge_list(text: str) -> Graph:
    """Parse a headerless ``u v`` list (konect style).

    Raw vertex labels are arbitrary non-negative integers and get renumbered
    densely in sorted label order. Lines starting with ``%`` or ``#`` are
    skipped. All weights are 0; run :func:`sample_weights` afterwards. The
    root defaults to vertex 0 and is a placeholder until
    :func:`attach_super_root` designates a real one.
    """
    us, vs = [], []
    for lineno, raw in enumerate(text.splitlines(), 1):
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
    dense = {lab: i for i, lab in enumerate(sorted({*us, *vs}))}
    return Graph(len(dense), 0, [dense[u] for u in us], [dense[v] for v in vs],
                 [0] * len(us))


class SplitMix64:
    """Deterministic 64-bit generator.

    State advances by the fixed increment 0x9E3779B97F4A7C15 modulo 2**64;
    each output runs the xorshift-multiply finalizer with constants
    0xBF58476D1CE4E5B9 and 0x94D049BB133111EB. The rule is pinned so that
    sequences are bit-identical across platforms and versions.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform value in [0, bound). Plain modulo; the bias at 64 bits is
        far below anything a frequency test at our sample sizes can see."""
        return self.next_u64() % bound


def sample_weights(graph: Graph, seed: int, max_w: int) -> Graph:
    """Replace every weight with a uniform draw from [1, max_w].

    Draws come from SplitMix64 seeded with ``seed``, one per edge in id
    order, so the result is reproducible bit for bit.
    """
    if max_w < 1:
        raise ValueError("max_w must be at least 1")
    rng = SplitMix64(seed)
    return replace(graph, w=[1 + rng.below(max_w) for _ in graph.w])


def weak_components(n: int, edges: Iterable[tuple]) -> list[int]:
    """Component label per vertex, ignoring edge direction; ``edges`` are
    any ``(origin, target, ...)`` tuples. Labels are the smallest vertex
    index in each component."""
    dsu = PlainDSU(n)
    for e in edges:
        dsu.join(e[0], e[1])
    label: dict[int, int] = {}
    out = [0] * n
    for v in range(n):
        r = dsu.find(v)
        if r not in label:
            label[r] = v
        out[v] = label[r]
    return out


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
    comp = weak_components(graph.n, zip(org, tgt))
    sizes: dict[int, int] = {}
    for c in comp:
        sizes[c] = sizes.get(c, 0) + 1
    best = max(sizes, key=lambda c: (sizes[c], -c))
    keep = [v for v in range(graph.n) if comp[v] == best]
    dense = {old: new for new, old in enumerate(keep)}
    nk = len(keep)

    max_abs = max(map(abs, w), default=0)
    w_inf = (max_abs + 1) * nk

    eids = [i for i, u in enumerate(org) if comp[u] == best]
    return Graph(nk + 1, nk,
                 [dense[org[i]] for i in eids] + [nk] * nk,
                 [dense[tgt[i]] for i in eids] + list(range(nk)),
                 [w[i] for i in eids] + [w_inf] * nk,
                 orig_ids=tuple(keep))
