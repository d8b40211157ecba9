"""Property tests on small arbitrary graphs: negative weights, parallel
edges, self-loops, edges into the root and infeasible inputs, also with the
edges into one vertex shifted by a constant; on tie-heavy graphs and
er-rooted instances, where ggst must pick exactly as it does with a scan in
place of its active forest, and as it does when it files every new path
head's incoming edges at once; on texts in or near the instance format and
the konect ``u v`` format, which the parsers must read block by block,
with blocks of a few characters, exactly as they do with every line read
on its own; on weak component labels against a
PlainDSU; and on konect-style ``u v`` texts through the super-root
pipeline. A failure shrinks to a minimal example. Examples are
derandomized, so every run draws the same ones."""

from dataclasses import replace
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import (SOLVERS, eager_ggst, parse_line_by_line,  # noqa: E402
                      parse_outcome, parse_plain_line_by_line, scan_ggst,
                      shape_free)
from dmst import (Graph, Infeasible, PlainDSU,  # noqa: E402
                  attach_super_root, build_leaf_map, gen_er_rooted, ggst_solve,
                  is_arborescence, naive_edmonds, parse_edge_list,
                  parse_plain_edge_list, reconstruct, sample_weights,
                  serialize, weak_components)
from dmst import graph as graph_mod  # noqa: E402

PROPS = settings(max_examples=250, deadline=None, derandomize=True,
                 database=None)


@st.composite
def graphs(draw, max_n: int = 8, max_m: int = 20, min_n: int = 1,
           max_w: int = 20) -> Graph:
    n = draw(st.integers(min_n, max_n))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(-max_w, max_w)),
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
@given(st.data())
def test_shift_into_one_vertex_shifts_the_optimum(data):
    # every arborescence has exactly one edge into each non-root vertex
    g = data.draw(graphs(min_n=2))
    v = (g.root + data.draw(st.integers(1, g.n - 1))) % g.n
    d = data.draw(st.integers(-30, 30))
    shifted = replace(g, w=[c + d if t == v else c
                            for t, c in zip(g.tgt, g.w)])
    for name, solve in SOLVERS.items():
        want = weight_or_infeasible(lambda h: solve(h).total_weight, g)
        got = weight_or_infeasible(lambda h: solve(h).total_weight, shifted)
        assert got == (want if want is Infeasible else want + d), name


@st.composite
def konect_texts(draw) -> str:
    """A headerless ``u v`` list with sparse labels, some lines carrying a
    third column, and ``%`` or ``#`` comment lines among them."""
    label = st.integers(0, 40).map(str)
    line = st.one_of(st.tuples(label, label).map(" ".join),
                     st.tuples(label, label, label).map("\t".join),
                     st.sampled_from(["% comment", "# 1 2"]))
    pair = st.tuples(label, label).map(" ".join)
    return "\n".join(draw(st.lists(line, max_size=20)) + [draw(pair)]) + "\n"


@PROPS
@given(konect_texts(), st.integers(0, 2**32), st.integers(1, 50))
def test_super_root_pipeline_is_feasible_and_exact(text, seed, max_w):
    plain = parse_plain_edge_list(text)
    g = attach_super_root(sample_weights(plain, seed, max_w))
    want = naive_edmonds(g)
    for name, solve in SOLVERS.items():
        assert solve(g).total_weight == want, name
    comp = weak_components(plain.n, plain.org, plain.tgt)
    sizes = {c: comp.count(c) for c in comp}
    members = {comp[v] for v in g.orig_ids}
    assert len(members) == 1 and sizes[members.pop()] == len(g.orig_ids)
    assert len(g.orig_ids) == max(sizes.values())


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


def ggst_trace(solve, g: Graph):
    r = weight_or_infeasible(solve, g)
    return r if r is Infeasible else (r.picked, r.forest_parent,
                                      shape_free(r.counters))


# ties are common at these weights: which equal-cost edge ggst picks must
# not depend on the shape of its active forest
TIES = settings(PROPS, max_examples=2000)


@TIES
@given(graphs(max_n=14, max_m=50, max_w=2))
def test_ggst_picks_match_scan_forest(g):
    assert ggst_trace(ggst_solve, g) == ggst_trace(scan_ggst, g)


@TIES
@given(st.integers(1, 60), st.integers(1, 5), st.integers(0, 2**32))
def test_ggst_picks_match_scan_forest_on_er_rooted(n, max_w, seed):
    # eight edges per vertex: the fold meets many equal-cost passive edges
    g = gen_er_rooted(n, 8 * n, max_w, seed)
    assert ggst_trace(ggst_solve, g) == ggst_trace(scan_ggst, g)


# a fresh head's scan and a contraction's late filing must pick exactly
# what filing every new head's incoming edges at once picks; the forest
# work, and so the counters, differ
def ggst_picks(solve, g: Graph):
    r = weight_or_infeasible(solve, g)
    return r if r is Infeasible else (r.picked, r.forest_parent,
                                      r.total_weight)


@PROPS
@given(graphs())
def test_lazy_ggst_matches_eager(g):
    # both with their debug walks, which hold for the eager order too
    assert (ggst_picks(lambda h: ggst_solve(h, debug=True), g)
            == ggst_picks(lambda h: eager_ggst(h, debug=True), g))


@TIES
@given(graphs(max_n=14, max_m=50, max_w=2))
def test_lazy_ggst_matches_eager_on_ties(g):
    assert ggst_picks(ggst_solve, g) == ggst_picks(eager_ggst, g)


@TIES
@given(st.integers(1, 60), st.integers(1, 5), st.integers(0, 2**32))
def test_lazy_ggst_matches_eager_on_er_rooted(n, max_w, seed):
    g = gen_er_rooted(n, 8 * n, max_w, seed)
    assert ggst_picks(ggst_solve, g) == ggst_picks(eager_ggst, g)


# small integers, sometimes junk built from the characters that border on
# integer syntax (signs, underscores, the bulk parser's ';' separator)
JUNK = st.text("0123456789-+_;x", min_size=1, max_size=3)
TOKENS = st.one_of(st.integers(-2, 5).map(str), JUNK)


def mostly(draw, good, bad=TOKENS):
    """One draw from ``good``, or from ``bad`` one time in five."""
    return draw(bad if draw(st.integers(0, 4)) == 0 else good)


# what splits a line's tokens: blanks, among them the characters at which
# str.splitlines but no parser ends a line, and a lone \r, which ends the
# line there though str.split reads it as a blank
BLANKS = st.sampled_from([" ", "\t", "  ", " \t", "\r", *graph_mod._BREAKS])


def join_lines(draw, lines: list[str]) -> str:
    """The lines, each led by nothing or a blank, joined by line ends
    drawn one by one: \\n, \\r\\n or a lone \\r."""
    led = [draw(st.sampled_from(["", " ", "\x0c"])) + line for line in lines]
    return "".join(led[:1]) + "".join(
        draw(st.sampled_from(["\n", "\r\n", "\r"])) + line for line in led[1:])


@st.composite
def edge_list_texts(draw) -> str:
    """Text in or near the ``n m r`` format: a header, lines of tokens
    split by blanks, blank lines, LF, CRLF or CR, mixed. Most texts are a
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
        out.append(draw(BLANKS).join(toks))
    out += [""] * mostly(draw, st.just(0), st.integers(1, 2))
    return join_lines(draw, out)


@st.composite
def cr_texts(draw) -> str:
    """A well-formed instance text with each blank and line end kept or
    made a lone \\r: read whole, a line a \\r splits would pass as one."""
    return "".join(draw(st.sampled_from([c, "\r"])) if c in " \n" else c
                   for c in serialize(draw(graphs())))


@PROPS
@given(st.one_of(edge_list_texts(), cr_texts()), st.integers(0, 8))
def test_parse_matches_line_parser(text, block):
    # blocks of a few characters: block ends fall inside lines, next to
    # \r\n pairs and lone \r
    with mock.patch.object(graph_mod, "PARSE_BLOCK", block):
        assert (parse_outcome(parse_edge_list, text)
                == parse_outcome(parse_line_by_line, text))


@PROPS
@given(st.data())
def test_weak_components_match_plain_dsu(data):
    n = data.draw(st.integers(1, 12))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)),
                               max_size=3 * n))
    dsu = PlainDSU(n)
    for u, v in pairs:
        dsu.join(u, v)
    smallest = {}
    for v in range(n):
        smallest.setdefault(dsu.find(v), v)
    assert (weak_components(n, [u for u, _ in pairs], [v for _, v in pairs])
            == [smallest[dsu.find(v)] for v in range(n)])


# tokens that a two-column block must refuse or read as the line does:
# signs, a negative label, "_", a comment's first token, junk
PLAIN_JUNK = st.sampled_from(["-1", "-0", "+4", "007", "1_0", "_", "%", "#2",
                              "x", "-12"])


@st.composite
def plain_texts(draw) -> str:
    """Text in or near the konect ``u v`` format: mostly two-label lines,
    with comment lines anywhere, blank lines and lines of three tokens;
    split by blanks, LF, CRLF or CR, mixed. Half the texts also carry odd
    tokens and one-token lines, which most often end in a ParseError."""
    label = st.integers(0, 30).map(str)
    odd = draw(st.booleans())
    token = (lambda: mostly(draw, label, PLAIN_JUNK)) if odd else (
        lambda: draw(label))
    lines = []
    for _ in range(draw(st.integers(0, 24))):
        if mostly(draw, st.just(True), st.just(False)):
            toks = [token(), token()]
        else:
            toks = draw(st.one_of(
                st.lists(label, min_size=1 if odd else 3, max_size=3),
                st.sampled_from([[], ["%", "c"], ["#", "1", "2"], ["%1", "2"]])))
        lines.append(draw(BLANKS).join(toks))
    return join_lines(draw, lines + [""] * draw(st.integers(0, 1)))


@PROPS
@given(plain_texts(), st.integers(0, 8))
def test_plain_parse_matches_line_parser(text, block):
    # blocks of a few characters, so one text spans several
    with mock.patch.object(graph_mod, "PARSE_BLOCK", block):
        assert (parse_outcome(parse_plain_edge_list, text)
                == parse_outcome(parse_plain_line_by_line, text))
