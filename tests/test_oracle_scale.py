"""Every configuration against networkx's Edmonds implementation, an oracle
that shares no code with the solvers, at sizes the in-repo oracles cannot
reach. Skipped when networkx is not installed."""

import random

import pytest

from conftest import SOLVERS
from dmst import (attach_super_root, gen_er_rooted, parse_plain_edge_list,
                  sample_weights)

nx = pytest.importorskip("networkx")

MATRIX_MAX_N = 1000  # tarjan-matrix's dense rows are O(n^2)


def networkx_weight(graph) -> int:
    g = nx.MultiDiGraph()
    g.add_nodes_from(range(graph.n))
    for u, v, w in zip(graph.org, graph.tgt, graph.w):
        if v != graph.root and u != v:
            g.add_edge(u, v, weight=w)
    tree = nx.minimum_spanning_arborescence(g)
    return sum(w for _, _, w in tree.edges(data="weight"))


def check_all_configs(graph) -> None:
    expected = networkx_weight(graph)
    for name, solve in SOLVERS.items():
        if name == "tarjan-matrix" and graph.n > MATRIX_MAX_N:
            continue
        assert solve(graph).total_weight == expected, name


def plain_text(labels: int, lines: int, seed: int) -> str:
    """Konect-style ``u v`` lines over sparse 9-digit labels: a few weak
    components, self-loops and repeated pairs included."""
    rng = random.Random(seed)
    label = rng.sample(range(100_000_000, 1_000_000_000), labels)
    cut = labels * 7 // 8
    groups = [label[:cut], label[cut:]]
    out = ["% asym unweighted\n"]
    for _ in range(lines):
        group = rng.choices(groups, weights=(7, 1))[0]
        out.append(f"{rng.choice(group)} {rng.choice(group)}\n")
    return "".join(out)


@pytest.mark.parametrize("n", [100, 1000])
def test_er_rooted_matches_networkx(n):
    check_all_configs(gen_er_rooted(n, 4 * n, 100, n + 7))


def test_super_root_pipeline_matches_networkx():
    plain = parse_plain_edge_list(plain_text(2000, 6000, 23))
    graph = attach_super_root(sample_weights(plain, 5, 100))
    assert plain.n > 1900 and 1000 < graph.n < plain.n
    check_all_configs(graph)


@pytest.mark.slow
def test_er_rooted_large_matches_networkx():
    # networkx's time at this size depends strongly on the instance: 16 s on
    # this seed, 90 s on some others (2-core VM)
    check_all_configs(gen_er_rooted(10_000, 40_000, 100, 3))
