"""Property tests on small arbitrary graphs: negative weights, parallel
edges, self-loops, edges into the root and infeasible inputs; and on texts
in or near the instance format, which the bulk parser must read exactly as
the line parser does. A failure shrinks to a minimal example. Examples are
derandomized, so every run draws the same ones."""

from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import SOLVERS, parse_outcome  # noqa: E402
from dmst import (Graph, Infeasible, build_leaf_map,  # noqa: E402
                  ggst_solve, is_arborescence, naive_edmonds,
                  parse_edge_list, reconstruct)
from dmst.graph import _parse_lines  # noqa: E402

PROPS = settings(max_examples=250, deadline=None, derandomize=True,
                 database=None)


@st.composite
def graphs(draw, max_n: int = 8, max_m: int = 20) -> Graph:
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(-20, 20)),
                          max_size=max_m))
    return Graph(n, draw(vertex), [e[0] for e in edges],
                 [e[1] for e in edges], [e[2] for e in edges])


def weight_or_infeasible(solve, g: Graph):
    try:
        return solve(g)
    except Infeasible:
        return Infeasible


@PROPS
@given(graphs())
def test_configurations_agree_with_naive_edmonds(g):
    want = weight_or_infeasible(naive_edmonds, g)
    for name, solve in SOLVERS.items():
        got = weight_or_infeasible(lambda h: solve(h).total_weight, g)
        assert got == want, name


@PROPS
@given(st.data())
def test_weight_ignores_edge_order(data):
    g = data.draw(graphs())
    order = data.draw(st.permutations(range(len(g.w))))
    shuffled = replace(g, org=[g.org[i] for i in order],
                       tgt=[g.tgt[i] for i in order], w=[g.w[i] for i in order])
    for name, solve in SOLVERS.items():
        want = weight_or_infeasible(lambda h: solve(h).total_weight, g)
        assert weight_or_infeasible(lambda h: solve(h).total_weight,
                                    shuffled) == want, name


@PROPS
@given(graphs())
def test_ggst_debug_checks_pass(g):
    try:
        result = ggst_solve(g, debug=True)
    except Infeasible:
        assert weight_or_infeasible(naive_edmonds, g) is Infeasible
        return
    ids = reconstruct(result, build_leaf_map(result, g), g, debug=True)
    assert is_arborescence(g, ids)
    assert sum(g.w[i] for i in ids) == result.total_weight


# small integers, sometimes junk built from the characters that border on
# integer syntax (signs, underscores, the bulk parser's ';' separator)
JUNK = st.text("0123456789-+_;x", min_size=1, max_size=3)
TOKENS = st.one_of(st.integers(-2, 5).map(str), JUNK)


def mostly(draw, good, bad=TOKENS):
    """One draw from ``good``, or from ``bad`` one time in five."""
    return draw(bad if draw(st.integers(0, 4)) == 0 else good)


@st.composite
def edge_list_texts(draw) -> str:
    """Text in or near the ``n m r`` format: a header, lines of tokens
    split by spaces or tabs, blank lines, LF or CRLF. Most texts are a
    header and m lines of three tokens, mostly in range."""
    if mostly(draw, st.just(True), st.just(False)):
        n, m = draw(st.integers(1, 4)), draw(st.integers(0, 5))
        vertex = st.integers(0, n - 1).map(str)
        header = [str(n), str(m + mostly(draw, st.just(0), st.just(1))),
                  mostly(draw, vertex)]
        lines = [[mostly(draw, vertex), mostly(draw, vertex),
                  mostly(draw, TOKENS, JUNK)] for _ in range(m)]
    else:
        header = draw(st.lists(TOKENS, max_size=4))
        lines = draw(st.lists(st.lists(TOKENS, max_size=4), max_size=5))
    out = []
    for toks in [header, *lines]:
        if not draw(st.integers(0, 9)):
            out.append(draw(st.sampled_from(["", " ", "\t"])))
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
        out.append(draw(st.sampled_from(["", " "])) + sep.join(toks))
    out += [""] * mostly(draw, st.just(0), st.integers(1, 2))
    return draw(st.sampled_from(["\n", "\r\n"])).join(out)


@PROPS
@given(edge_list_texts())
def test_parse_matches_line_parser(text):
    assert (parse_outcome(parse_edge_list, text)
            == parse_outcome(lambda t: _parse_lines(t.splitlines()), text))
