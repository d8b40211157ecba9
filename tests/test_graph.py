import math
import random
import tracemalloc

import pytest

from conftest import (G_CYC_TEXT, G_TRI_TEXT, SOLVERS, parse_line_by_line,
                      parse_outcome, parse_plain_line_by_line)
from dmst import (Edge, Graph, ParseError, SplitMix64, attach_super_root,
                  build_leaf_map, gen_er_rooted, parse_edge_list,
                  parse_plain_edge_list, reconstruct, sample_weights,
                  serialize, weak_components)
from dmst import graph as graph_mod
from dmst.graph import LANES, PARSE_BLOCK, W_LIMIT


@pytest.fixture
def taken(monkeypatch):
    """``(block, taken whole)`` for every block a parser offers ``_columns``."""
    columns, seen = graph_mod._columns, []

    def spy(block, cols):
        seen.append((block, columns(block, cols)))
        return seen[-1][1]

    monkeypatch.setattr(graph_mod, "_columns", spy)
    return seen


def test_parse_tri():
    g = parse_edge_list(G_TRI_TEXT)
    assert g.n == 3 and g.root == 0
    assert g.edges == (Edge(0, 1, 5, 0), Edge(0, 2, 7, 1),
                       Edge(1, 2, 1, 2), Edge(2, 1, 1, 3))


def test_parse_skips_blank_lines():
    g = parse_edge_list("2 1 0\n\n0 1 3\n\n")
    assert len(g.edges) == 1 and g.edges[0].weight == 3
    assert parse_edge_list("\n \n2 1 0\n0 1 3\n") == g


@pytest.mark.parametrize("text,msg", [
    ("", "missing header, line 1"),
    ("   \n", "missing header, line 1"),
    ("3 4\n", "header must be 'n m r', line 1"),
    ("-1 0 0\n", "negative count in header, line 1"),
    ("2 -1 0\n", "negative count in header, line 1"),
    ("2 0 2\n", "root out of range, line 1"),
    ("2 1 0\n0 1\n", "edge line must be 'u v w', line 2"),
    ("2 1 0\n0 x 1\n", "not an integer 'x', line 2"),
    ("2 1 0\n0 2 1\n", "index out of range, line 2"),
    ("2 1 0\n\n0 5 1\n", "index out of range, line 3"),
    ("2 2 0\n0 1 1\n", "expected 2 edges, found 1, line 3"),
    ("2 0 0\n0 1 1\n", "expected 0 edges, found 1, line 3"),
    ("\n3 4\n", "header must be 'n m r', line 2"),
    ("\n\n2 1 0\n0 5 1\n", "index out of range, line 4"),
    # int() alone takes "_" separators: "5_0" would read as 50
    ("2 1 0\n0 1 5_0\n", "not an integer '5_0', line 2"),
    ("20 1 0\n0 1_0 5\n", "not an integer '1_0', line 2"),
    ("2_0 1 0\n0 1 5\n", "not an integer '2_0', line 1"),
    ("2 2 0\n0 1 5\n\n1 0 -5_0\n", "not an integer '-5_0', line 4"),
    # only \n, \r\n and \r end a line; str.splitlines' other breaks are
    # blanks, as str.split reads them
    ("3 2 0\n0 1 5\x0c\n1 2 x\n", "not an integer 'x', line 3"),
    ("2 1 0\x0b\n\x1c\r\n0 5 1\n", "index out of range, line 3"),
    ("2 1 0\r0 1 5\x1d\x1e\x85\u2028\u20290\n",
     "edge line must be 'u v w', line 2"),
    ("2 2 0\x0c\n0 1 1\x0c\n", "expected 2 edges, found 1, line 3"),
])
def test_parse_errors(text, msg):
    with pytest.raises(ParseError, match="^" + msg + "$"):
        parse_edge_list(text)


def test_weight_bound():
    big = 2 ** 32
    with pytest.raises(ParseError, match="weight out of bound, line 2"):
        parse_edge_list(f"2 1 0\n0 1 {big + 1}\n")
    g = parse_edge_list(f"2 1 0\n0 1 {big}\n")
    assert g.edges[0].weight == big
    with pytest.raises(ParseError, match="weight out of bound"):
        parse_edge_list(f"2 1 0\n0 1 -{big + 1}\n")
    # one bound at every vertex count, above 2**20 vertices too
    text = f"{2**20 + 1} 1 0\n0 1 {{}}\n"
    assert parse_edge_list(text.format(2**24 + 1)).w == [2**24 + 1]
    assert parse_edge_list(text.format(-big)).w == [-big]
    with pytest.raises(ParseError, match="^weight out of bound, line 2$"):
        parse_edge_list(text.format(big + 1))


@pytest.mark.parametrize("text", [
    f"2 2 0\n0 1 {W_LIMIT}\n1 0 -{W_LIMIT}\n",
    f"2 2 0\n0 1 {W_LIMIT}\n1 0 {W_LIMIT + 1}\n",
    f"2 2 0\n0 1 -{W_LIMIT + 1}\n1 0 3\n",
    "0 0 0\n",
    "0 0 0",
    "2 1 0\n0 1 3\n\n\n",
    "2 1 0\r\n0 1 3\r\n",
    "2 1 0\n0 ; 1\n",
    # 4k - 1 tokens, but a line's own ';' pushes a separator into a column
    "2 2 0\n0 1 3 ;\n1 0\n",
    "2 2 0\n0 1 3\n1 0 3 4\n",
    "2 1 0\n+0 1_0 -0\n",
    "0 1 0\n0 0 0\n",
    "2 1 0\n2 0 1\n",
    "2 1 0\n-1 0 1\n",
    "2 1 0\n0 -1 1\n",
    "2 1 0 x\n0 1 3\n",
    # a lone \r ends a line, though str.split reads it as a blank: a block
    # holding one is read line by line (taken whole, the first would be
    # one line of three)
    "2 1 0\n0 1\r5\n",
    "2 5 0\n" + "0 1 5\r" * 4 + "0 1 5\n",
    "2 2 0\r0 1 5\r\r\n1 0 x\n",
])
def test_bulk_parse_matches_line_parser(text):
    assert (parse_outcome(parse_edge_list, text)
            == parse_outcome(parse_line_by_line, text))


def test_generated_instances_take_the_bulk_path(taken):
    # the text after the header in several blocks, each taken whole; a
    # later block's error still names its line
    g = gen_er_rooted(3000, 9000, 100, 5)
    text = serialize(g)
    assert parse_edge_list(text) == g
    assert len(taken) > len(text) // (2 * PARSE_BLOCK)
    assert all(ok for _, ok in taken)
    assert "".join(b for b, _ in taken) == text[text.index("\n") + 1:]
    lines = text.splitlines()
    lines[8500] = "0 3000 1"
    with pytest.raises(ParseError, match="^index out of range, line 8501$"):
        parse_edge_list("\n".join(lines))


@pytest.mark.parametrize("m", [48_000, 192_000])
def test_parse_peak_does_not_grow_with_the_text(m):
    # one block's tokens live at a time, not every line of the text: the
    # peak above the graph kept stays under a bound fixed for all m (all
    # lines at once cost 3.3 MB at m = 48 000)
    text = serialize(gen_er_rooted(m // 4, m, 1000, 11))
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.w) == m and peak - kept < 0.25 * 2**20


@pytest.mark.parametrize("m", [48_000, 192_000])
def test_plain_parse_peak_stays_below_the_graph(m):
    # the labels and the label columns are freed in turn while the
    # columns are renumbered, so the peak above the graph kept stays
    # under 0.8 of it (0.6 here; 1.37 while the labels dict, the sorted
    # values and both label columns lived to the end)
    rng = random.Random(m)
    labels = rng.sample(range(10**8, 10**9), m // 8)
    text = "".join(f"{rng.choice(labels)} {rng.choice(labels)}\n"
                   for _ in range(m))
    tracemalloc.start()
    try:
        g = parse_plain_edge_list(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.w) == m and peak - kept < 0.8 * kept


def test_refused_chunk_leaves_the_columns_as_they_were():
    cols = [[7], [8], [9]]
    bounded = ((cols[0], int, 0, 1), (cols[1], int, 0, 1),
               (cols[2], int, -W_LIMIT, W_LIMIT))
    for block in ("0 1 3\n1 x 2\n", "0 1 3\n1 2 2\n", "0 1\n", "\n",
                  "0 1 3\n1 0 1_0\n", "0 1 3\n1 0 -4294967297\n",
                  "0 1\r3\n", "0 1 3\n1 ; 0\n", "0 1 3\n "):
        assert not graph_mod._columns(block, bounded)
        assert cols == [[7], [8], [9]]
    assert graph_mod._columns("0 1 3\r\n1 0 -2", bounded)
    assert cols == [[7, 0, 1], [8, 1, 0], [9, 3, -2]]


def test_columns_take_any_width_and_bounds():
    # the plain list's two columns of label values: no upper bound, a
    # third token or a negative label refused
    us, vs = [], []
    label = (graph_mod._Labels().__getitem__, 0, math.inf)
    plain = ((us, *label), (vs, *label))
    for block in ("5 10 1\n", "5 -1\n", "% 5 10\n", "5 10\n\n", "5"):
        assert not graph_mod._columns(block, plain)
        assert us == vs == []
    assert graph_mod._columns("5 10\n\t999999999999   +7\n0 0\n", plain)
    assert us == [5, 999999999999, 0] and vs == [10, 7, 0]
    one = [4]
    assert graph_mod._columns("1\n2\n-3", ((one, int, -3, 2),))
    assert one == [4, 1, 2, -3]


def test_refused_chunk_between_whole_ones():
    # CRLF ends and one blank line, which refuses one block: the graph and
    # a later block's error are those of reading every line on its own
    g = gen_er_rooted(200, 1200, 50, 3)
    lines = serialize(g).splitlines()
    lines.insert(400, "")
    text = "\r\n".join(lines)
    assert parse_edge_list(text) == parse_line_by_line(text) == g
    lines[1100] = "0 1"
    with pytest.raises(ParseError, match="^edge line must be 'u v w', "
                                         "line 1101$"):
        parse_edge_list("\r\n".join(lines))


def test_edges_view_is_cached_and_positional():
    g = parse_edge_list(G_TRI_TEXT)
    assert g.edges is g.edges
    assert g.edges == tuple(Edge(u, v, w, i) for i, (u, v, w)
                            in enumerate(zip(g.org, g.tgt, g.w)))


def test_solve_path_never_builds_edges_view():
    # the view is a convenience for callers; solvers, the pick log,
    # reconstruction and graph preparation read the columns
    for algo, solve in SOLVERS.items():
        g = parse_edge_list(G_CYC_TEXT)
        r = solve(g, debug=True)
        reconstruct(r, build_leaf_map(r, g), g, debug=True)
        assert "edges" not in vars(g), algo
    g = parse_plain_edge_list("10 30\n30 10\n5 10\n7 8\n")
    h = sample_weights(g, 3, 9)
    s = attach_super_root(h)
    for graph in (g, h, s):
        assert "edges" not in vars(graph)


def test_serialize_round_trip():
    g = parse_edge_list(G_TRI_TEXT)
    assert serialize(g) == G_TRI_TEXT
    assert parse_edge_list(serialize(g)) == g


def test_parse_plain_edge_list():
    text = "% comment\n# another\n10 30\n30 10\n5 10\n"
    g = parse_plain_edge_list(text)
    # labels 5,10,30 renumbered 0,1,2 in sorted order
    assert g.n == 3 and g.root == 0
    assert [(e.origin, e.target) for e in g.edges] == [(1, 2), (2, 1), (0, 1)]
    assert all(e.weight == 0 for e in g.edges)
    with pytest.raises(ParseError, match="edge line must be 'u v', line 2"):
        parse_plain_edge_list("1 2\n3\n")
    with pytest.raises(ParseError, match="^not an integer '1_0', line 2$"):
        parse_plain_edge_list("1 2\n1_0 3\n")
    # a form feed is a blank inside its line, not a line end
    assert parse_plain_edge_list("0 1\x0c5\n") == parse_plain_edge_list("0 1\n")
    with pytest.raises(ParseError, match="^edge line must be 'u v', line 3$"):
        parse_plain_edge_list("0 1\x0c\n\x0b1 2\n3\x0c\n")
    # a block refused midway keeps no token of a longer line as a label
    for text in ("1 2 3 5\n\n", "1 2 ; 5\n\n", "1\r2\n"):
        assert (parse_outcome(parse_plain_edge_list, text)
                == parse_outcome(parse_plain_line_by_line, text))


def test_plain_spellings_of_one_label_are_one_vertex(taken):
    g = parse_plain_edge_list("7 1\n007 2\n+7 3\n")
    assert [ok for _, ok in taken] == [True]
    assert g.n == 4 and g.org == [3, 3, 3] and g.tgt == [0, 1, 2]


def test_form_feeds_keep_line_numbers_past_the_chunks():
    g = gen_er_rooted(300, 1200, 9, 4)
    text = serialize(g).replace("\n", "\x0c\n", 700)
    assert parse_edge_list(text) == parse_line_by_line(text) == g
    bad = text.replace("1200 0", "1201 0", 1) + "0 1 x\n"
    for parse in (parse_edge_list, parse_line_by_line):
        with pytest.raises(ParseError, match="^not an integer 'x', line 1202$"):
            parse(bad)


def test_splitmix_determinism():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    seq = [a.next_u64() for _ in range(50)]
    assert seq == [b.next_u64() for _ in range(50)]
    assert all(0 <= x < 2 ** 64 for x in seq)
    assert len(set(seq)) == 50
    c = SplitMix64(12346)
    assert [c.next_u64() for _ in range(50)] != seq


def test_plain_text_takes_the_bulk_path(taken):
    # konect-style text over several blocks, with comments in the first and
    # in a middle block: those two are read line by line, the rest whole,
    # and a later block's bad label is reported on its line
    rng = random.Random(4)
    labels = [rng.randrange(10**8, 10**9) for _ in range(4096)]
    lines = [f"{u} {v}" for u, v in zip(labels[0::2], labels[1::2])]
    lines[0:0] = ["% sym unweighted", "% 2048 2048 2048"]
    lines.insert(1000, "# mid-file note")
    text = "\n".join(lines) + "\n"
    g = parse_plain_edge_list(text)
    assert "".join(b for b, _ in taken) == text and len(taken) > 4
    assert [ok for _, ok in taken] == [
        "%" not in b and "#" not in b for b, _ in taken]
    assert sum(not ok for _, ok in taken) == 2
    assert g == parse_plain_line_by_line(text)
    assert g.n == len(set(labels))
    for bad, msg in (("12 -3", "index out of range"),
                     ("1_0 3", "not an integer '1_0'")):
        with pytest.raises(ParseError, match=f"^{msg}, line 1801$"):
            parse_plain_edge_list("\n".join(lines[:1800] + [bad]
                                            + lines[1801:]))


def test_splitmix_known_answers():
    # pinned outputs: the rule must not drift on any platform or version
    rng = SplitMix64(12345)
    assert [rng.next_u64() for _ in range(4)] == [
        2454886589211414944, 3778200017661327597, 2205171434679333405,
        3248800117070709450]


@pytest.mark.parametrize("seed,count,low,high", [
    (7, 300, 1, 1000), (2**64 - 3, 40, -5, 5), (0, 1, 0, 0), (9, 0, 1, 3)])
def test_splitmix_uniform_is_that_many_below_calls(seed, count, low, high):
    bulk, single = SplitMix64(seed), SplitMix64(seed)
    assert bulk.uniform(count, low, high) == [
        low + single.below(high - low + 1) for _ in range(count)]
    assert bulk.next_u64() == single.next_u64()


def test_lane_kernel_is_that_many_below_calls():
    # the lane kernel against the one-draw rule: counts on both sides of
    # every block edge (a negative count draws nothing), seeds taken modulo
    # 2**64, negative lows, spans of 1 and past 2**64; a negative span
    # draws as below does, in (span, 0]. Skipped without hypothesis, like
    # the other properties
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=200, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(
        seed=st.integers(0, 2**64 - 1) | st.integers(2**64, 2**72),
        count=st.sampled_from([-1, 0, 1, LANES - 1, LANES, LANES + 1,
                               2 * LANES, 3 * LANES + 7])
        | st.integers(0, 4 * LANES),
        low=st.integers(-2**70, 2**70),
        span=st.just(1) | st.integers(2, 2**64)
        | st.integers(2**64 + 1, 2**72) | st.integers(-2**70, -1))
    def check(seed, count, low, span):
        bulk, single = SplitMix64(seed), SplitMix64(seed)
        assert bulk.uniform(count, low, low + span - 1) == [
            low + single.below(span) for _ in range(count)]
        assert bulk.next_u64() == single.next_u64()

    check()


@pytest.mark.parametrize("count", [1, LANES, LANES + 1])
def test_uniform_over_an_empty_span_raises_with_the_state_unmoved(count):
    rng = SplitMix64(3)
    with pytest.raises(ZeroDivisionError) as caught:
        rng.uniform(count, 5, 4)
    with pytest.raises(ZeroDivisionError) as below_caught:
        SplitMix64(3).below(0)
    assert str(caught.value) == str(below_caught.value)
    assert rng.next_u64() == SplitMix64(3).next_u64()
    assert rng.uniform(0, 5, 4) == []


def test_splitmix_below():
    rng = SplitMix64(7)
    draws = [rng.below(10) for _ in range(2000)]
    assert all(0 <= d < 10 for d in draws)
    # crude frequency check: every residue shows up a plausible number of times
    for r in range(10):
        assert 120 <= draws.count(r) <= 280


def test_sample_weights():
    g = parse_edge_list("3 3 0\n0 1 0\n1 2 0\n2 0 0\n")
    h1 = sample_weights(g, 42, 10)
    h2 = sample_weights(g, 42, 10)
    assert h1 == h2
    assert all(1 <= e.weight <= 10 for e in h1.edges)
    assert [(e.origin, e.target, e.id) for e in h1.edges] == \
           [(e.origin, e.target, e.id) for e in g.edges]
    assert sample_weights(g, 43, 10) != h1
    with pytest.raises(ValueError):
        sample_weights(g, 1, 0)


def test_sample_weights_known_answers():
    text = "4 10 0\n" + "".join(f"{i % 4} {(i * 3 + 1) % 4} 0\n"
                                for i in range(10))
    g = parse_edge_list(text)
    assert sample_weights(g, 42, 1000).w == [
        414, 292, 859, 765, 251, 63, 926, 909, 6, 975]
    # the seed is taken modulo 2**64
    assert sample_weights(g, 2**64 + 42, 7).w == [6, 6, 1, 3, 7, 5, 3, 7, 7, 6]


def test_weak_components():
    assert weak_components(5, [0, 3], [1, 2]) == [0, 0, 2, 2, 4]
    # a later edge links a larger root under a smaller one, deep in a chain
    assert weak_components(6, [5, 4, 3, 2, 1], [4, 3, 2, 1, 5]) == [
        0, 1, 1, 1, 1, 1]
    assert weak_components(0, [], []) == []


def test_attach_super_root_keeps_largest_component():
    # component {0,1,2} (size 3) beats {3,4}; retained indices keep order
    text = "5 3 0\n0 1 4\n2 1 -2\n3 4 9\n"
    g = attach_super_root(parse_edge_list(text))
    assert g.n == 4 and g.root == 3
    assert g.orig_ids == (0, 1, 2)
    # W_INF = (9 + 1) * 3 retained vertices
    inf = 30
    assert [(e.origin, e.target, e.weight) for e in g.edges] == [
        (0, 1, 4), (2, 1, -2), (3, 0, inf), (3, 1, inf), (3, 2, inf)]
    assert [e.id for e in g.edges] == [0, 1, 2, 3, 4]


def test_attach_super_root_tie_goes_to_smallest_member():
    text = "4 2 0\n0 1 1\n2 3 1\n"
    g = attach_super_root(parse_edge_list(text))
    assert g.orig_ids == (0, 1)


def test_attach_super_root_tie_among_three_components():
    # three components of three vertices each and a pair {9, 10}; the one
    # holding vertex 0 comes last in edge order
    text = ("11 7 0\n6 2 1\n3 6 2\n7 4 3\n9 10 4\n8 5 5\n1 7 6\n"
            "5 0 7\n")
    g = attach_super_root(parse_edge_list(text))
    assert g.orig_ids == (0, 5, 8)
    assert g.n == 4 and g.root == 3
    # W_INF = (7 + 1) * 3 retained vertices
    assert (g.org, g.tgt, g.w) == ([2, 1, 3, 3, 3], [1, 0, 0, 1, 2],
                                   [5, 7, 24, 24, 24])


def test_attach_super_root_rejects_empty():
    with pytest.raises(ValueError, match="empty graph"):
        attach_super_root(Graph(0, 0, [], [], []))


def test_attach_super_root_solvable_from_plain_list():
    # end to end: headerless text, weights, super root, then both solvers
    from dmst import ggst_solve, tarjan_solve
    rng = random.Random(5)
    lines = ["% header junk"]
    for _ in range(40):
        lines.append(f"{rng.randrange(12)} {rng.randrange(12)}")
    g = parse_plain_edge_list("\n".join(lines))
    g = sample_weights(g, 99, 50)
    g = attach_super_root(g)
    a = tarjan_solve(g, "sil").total_weight
    b = ggst_solve(g).total_weight
    assert a == b
