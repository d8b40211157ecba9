"""Property tests on small arbitrary graphs: negative weights, parallel
edges, self-loops, edges into the root and infeasible inputs. A failure
shrinks to a minimal graph. Examples are derandomized, so every run draws
the same ones."""

from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import SOLVERS  # noqa: E402
from dmst import (Graph, Infeasible, build_leaf_map, ggst_solve,  # noqa: E402
                  is_arborescence, naive_edmonds, reconstruct)

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
