"""Self-test of the benchmark: every workload generator at desk scale,
through the same benchmark code, against independent oracles.

    python3 -m pytest perfbench/test_selftest.py

Run from the root of a checkout. It is not part of the tier-1 suite under
tests/; it checks the benchmark, not the program.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
import workloads as W  # noqa: E402
from dmst import naive_edmonds  # noqa: E402

# per workload, the factor that brings its main instance to about 50 vertices
FACTORS = {"er-sparse": 0.004, "antilemon": 0.004, "superroot": 0.004}


def networkx_weight(graph) -> int:
    nx = pytest.importorskip("networkx")
    g = nx.MultiDiGraph()
    g.add_nodes_from(range(graph.n))
    for e in graph.edges:
        if e.target != graph.root and e.origin != e.target:
            g.add_edge(e.origin, e.target, weight=e.weight)
    tree = nx.minimum_spanning_arborescence(g)
    return sum(w for _, _, w in tree.edges(data="weight"))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced run per workload at reduced size: (spec, summary, graphs)."""
    out = {}
    for name, factor in FACTORS.items():
        spec = W.scaled(name, factor)
        work = tmp_path_factory.mktemp(name)
        summary = bench.run_workload(name, spec, 7, 0.0, False, ROOT / "src",
                                     work / "w")
        graphs = bench.load_instances(spec, 7, work / "w" / "inst")
        out[name] = (spec, summary, graphs)
    return out


@pytest.mark.parametrize("name", list(FACTORS))
def test_every_configuration_matches_oracles(runs, name):
    spec, summary, graphs = runs[name]
    assert summary["failed"] == 0, [r["error"] for r in summary["records"]]
    assert {r["job"]["algo"] for r in summary["records"]} == set(W.ALGOS)
    for inst, graph in graphs.items():
        expected = naive_edmonds(graph)
        if spec["family"] == "antilemon":
            assert expected == (spec["matrix_size"] if inst.startswith("matrix")
                                else spec["k"])
        assert networkx_weight(graph) == expected
        for rec in summary["records"]:
            if rec["job"]["instance"] == inst:
                assert rec["weight"] == expected, rec["job"]["algo"]


@pytest.mark.parametrize("name", list(FACTORS))
def test_dropped_edge_id_counts_as_failed(runs, name):
    spec, summary, graphs = runs[name]
    records = [dict(r, error=None) for r in summary["records"]]
    out = Path(records[0]["job"]["out"])
    ids = out.read_text().split()
    out.write_text("".join(f"{eid}\n" for eid in ids[1:]))
    try:
        bench.check_solves(spec, records, graphs)
    finally:
        out.write_text("".join(f"{eid}\n" for eid in ids))
    assert [r["error"] is not None for r in records] == \
        [True] + [False] * (len(records) - 1)


def benchmark_names(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("name", list(FACTORS))
def test_untraced_run_reports_every_end_to_end_metric(runs, name):
    assert set(runs[name][1]["metrics"]) == benchmark_names("end_to_end")


@pytest.mark.parametrize("name", list(FACTORS))
def test_traced_run_reports_every_per_layer_metric(tmp_path, name):
    spec = W.scaled(name, FACTORS[name])
    first, second = (bench.run_workload(name, spec, 7, 0.0, True, ROOT / "src",
                                        tmp_path / f"w{i}") for i in range(2))
    assert first["failed"] == second["failed"] == 0
    assert set(first["metrics"]) == benchmark_names("per_layer")
    for metric, (value, unit, _) in first["metrics"].items():
        if unit == "count":
            assert second["metrics"][metric][0] == value, metric
    spans = first["trace"]["spans"]
    assert {s["name"] for s in spans} >= {"solve", "init", "run", "reconstruct"}
    for solve_id, layers in first["trace"]["self_s"].items():
        assert all(t >= 0 for t in layers.values()), solve_id
