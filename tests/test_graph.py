import random

import pytest

from conftest import G_CYC_TEXT, G_TRI_TEXT, SOLVERS, parse_outcome
from dmst import (Edge, Graph, ParseError, SplitMix64, attach_super_root,
                  build_leaf_map, gen_er_rooted, parse_edge_list,
                  parse_plain_edge_list, reconstruct, sample_weights,
                  serialize, weak_components)
from dmst import graph as graph_mod
from dmst.graph import W_LIMIT, _parse_lines


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
])
def test_bulk_parse_matches_line_parser(text):
    assert (parse_outcome(parse_edge_list, text)
            == parse_outcome(lambda t: _parse_lines(t.splitlines()), text))


def test_generated_instances_take_the_bulk_path(monkeypatch):
    # several chunks: a later chunk's error still names its line
    g = gen_er_rooted(3000, 9000, 100, 5)
    text = serialize(g)
    assert parse_edge_list(text) == g

    def refuse(lines):
        raise AssertionError("line parser used")

    monkeypatch.setattr(graph_mod, "_parse_lines", refuse)
    assert parse_edge_list(text) == g
    monkeypatch.undo()
    lines = text.splitlines()
    lines[8500] = "0 3000 1"
    with pytest.raises(ParseError, match="^index out of range, line 8501$"):
        parse_edge_list("\n".join(lines))


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


def test_splitmix_determinism():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    seq = [a.next_u64() for _ in range(50)]
    assert seq == [b.next_u64() for _ in range(50)]
    assert all(0 <= x < 2 ** 64 for x in seq)
    assert len(set(seq)) == 50
    c = SplitMix64(12346)
    assert [c.next_u64() for _ in range(50)] != seq


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


def test_weak_components():
    edges = [Edge(0, 1, 0, 0), Edge(3, 2, 0, 1)]
    assert weak_components(5, edges) == [0, 0, 2, 2, 4]


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
