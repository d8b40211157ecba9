"""Acceptance gate. One test per criterion, each printing a PASS/FAIL line.

Run `pytest -v -s tests/test_acceptance.py` to see the per-criterion lines;
the whole module is self-contained and repeatable (fixed seeds throughout).
"""

import random
import statistics
import time
from dataclasses import replace

import pytest

from conftest import SOLVERS, random_instance
from dmst import (Infeasible, brute_force, build_leaf_map,
                  gen_antilemon, gen_er_rooted, ggst_solve, is_arborescence,
                  naive_edmonds, reconstruct, tarjan_solve)
from test_active_forest import run_af_sequence
from test_queues import _run_sequence as run_queue_sequence


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def sweep():
    """2,000 small instances solved by everything: 1,000 arbitrary random
    graphs (negative weights, self-loops, parallels, random roots) and
    1,000 er-rooted ones. Shared by criteria 1-3."""
    rng = random.Random(0xACCE)
    instances = [random_instance(rng) for _ in range(1000)]
    for i in range(1000):
        n = rng.randint(1, 8)
        m = rng.randint(max(0, n - 1), 20)
        instances.append(gen_er_rooted(n, m, 40, 20_000 + i))
    t0 = time.perf_counter()
    rows = []
    for g in instances:
        try:
            want = brute_force(g)[0]
        except Infeasible:
            want = None
        try:
            second = naive_edmonds(g)
        except Infeasible:
            second = None
        results = {}
        for name, solve in SOLVERS.items():
            try:
                results[name] = solve(g)
            except Infeasible:
                results[name] = None
        rows.append((g, want, second, results))
    elapsed = time.perf_counter() - t0
    return {"rows": rows, "elapsed": elapsed}


@pytest.fixture(scope="module")
def big_er():
    """er-rooted instances up to n = 10^4 with per-config results; the
    matrix strategy stops at n = 10^3 (its per-super-vertex dense rows put
    an O(n^2) floor on memory, which is the documented design tradeoff)."""
    plans = [
        (10, 30, tuple(SOLVERS)),
        (100, 400, tuple(SOLVERS)),
        (1000, 4000, tuple(SOLVERS)),
        (10_000, 40_000, ("tarjan-heap", "tarjan-sil", "ggst")),
    ]
    out = []
    for n, m, algos in plans:
        g = gen_er_rooted(n, m, 100, n)
        out.append((g, {name: SOLVERS[name](g) for name in algos}))
    return out


def test_criterion_1_oracle_equivalence(sweep):
    bad = 0
    for g, want, second, results in sweep["rows"]:
        if second != want:
            bad += 1
            continue
        for name in SOLVERS:
            r = results[name]
            got = None if r is None else r.total_weight
            if got != want:
                bad += 1
    ok = bad == 0 and sweep["elapsed"] < 60.0
    report(1, ok, f"2000 instances x 4 configs vs 2 oracles, "
                  f"{bad} mismatches, {sweep['elapsed']:.1f}s (< 60s)")


def test_criterion_2_reconstruction_validity(sweep, big_er):
    bad = 0
    checked = 0
    for g, want, _, results in sweep["rows"]:
        if want is None:
            continue
        for r in results.values():
            if r is None:
                bad += 1
                continue
            ids = reconstruct(r, build_leaf_map(r, g), g)
            checked += 1
            if (len(ids) != g.n - 1 or not is_arborescence(g, ids)
                    or sum(g.edges[e].weight for e in ids) != r.total_weight):
                bad += 1
    for g, results in big_er:
        for r in results.values():
            ids = reconstruct(r, build_leaf_map(r, g), g)
            checked += 1
            if (len(ids) != g.n - 1 or not is_arborescence(g, ids)
                    or sum(g.edges[e].weight for e in ids) != r.total_weight):
                bad += 1
    report(2, bad == 0,
           f"{checked} reconstructions (incl. er-rooted n=10^4), "
           f"{bad} invalid")


def test_criterion_3_structural_invariants(sweep, big_er):
    bad = 0
    rows = [(g, results) for g, _, _, results in sweep["rows"]] + big_er
    for g, results in rows:
        for name, r in results.items():
            if r is None:
                continue
            n = g.n
            if r.counters["contractions"] > max(0, n - 1):
                bad += 1
            if r.counters["summed_cycle_length"] >= 2 * n:
                bad += 1
            if name == "ggst":
                ops = (r.counters["af_queries"] + r.counters["af_deletes"]
                       + r.counters["af_merges"])
                if ops > 4 * n:
                    bad += 1
    report(3, bad == 0,
           f"contractions/cycle-length/AF-ops bounds over "
           f"{len(rows)} instances, {bad} violations")


def test_criterion_4_active_forest_properties():
    t0 = time.perf_counter()
    failed = None
    for seed in range(10_000):
        try:
            run_af_sequence(seed, 12, check_every_op=False)
        except AssertionError as exc:
            failed = f"seed {seed}: {exc}"
            break
    elapsed = time.perf_counter() - t0
    report(4, failed is None,
           failed or f"10^4 randomized forest sequences, invariants (1)-(3) "
                     f"walked and query oracle matched, {elapsed:.1f}s")


def test_criterion_5_weight_shift_covariance():
    rng = random.Random(0x5147)
    bad = 0
    done = 0
    while done < 100:
        g = random_instance(rng)
        if g.n < 2:
            continue
        try:
            base = brute_force(g)[0]
        except Infeasible:
            continue
        v = rng.choice([x for x in range(g.n) if x != g.root])
        for delta in (-7, 3):
            shifted = replace(g, w=[
                x + (delta if t == v else 0) for t, x in zip(g.tgt, g.w)])
            for solve in SOLVERS.values():
                if solve(shifted).total_weight != base + delta:
                    bad += 1
        done += 1
    report(5, bad == 0,
           f"100 feasible instances x deltas -7/+3 x 4 configs, "
           f"{bad} wrong totals")


@pytest.mark.slow
def test_criterion_6_antilemon_worst_case():
    k = 100_000
    g = gen_antilemon(k)
    t0 = time.perf_counter()
    rg = ggst_solve(g)
    t_ggst = time.perf_counter() - t0
    t0 = time.perf_counter()
    rs = tarjan_solve(g, "sil")
    t_sil = time.perf_counter() - t0
    scans = rs.counters["list_merge_scan"]
    ok = (t_ggst < 10.0 and t_sil < 10.0
          and rg.total_weight == rs.total_weight == k
          and scans >= k * k // 8)
    report(6, ok, f"k=10^5: ggst {t_ggst:.2f}s, sil {t_sil:.2f}s (< 10s); "
                  f"hypothetical list-merge scan {scans:.2e} >= k^2/8 = "
                  f"{k * k // 8:.2e}")


@pytest.mark.slow
def test_criterion_7_scaling_sanity():
    from dmst import GgstSolver, TarjanSolver
    n = 100_000
    reps = 5
    makers = {"ggst": lambda g: GgstSolver(g),
              "tarjan-sil": lambda g: TarjanSolver(g, strategy="sil")}
    medians = {}
    for m in (200_000, 400_000, 800_000):
        g = gen_er_rooted(n, m, 1000, m)
        for name, make in makers.items():
            times = []
            weights = set()
            for _ in range(reps):
                solver = make(g)   # init phase outside the clock
                t0 = time.perf_counter()
                r = solver.run()
                times.append(time.perf_counter() - t0)
                weights.add(r.total_weight)
            assert len(weights) == 1
            medians[(name, m)] = statistics.median(times)
    bad = []
    for name in ("ggst", "tarjan-sil"):
        for lo, hi in ((200_000, 400_000), (400_000, 800_000)):
            ratio = medians[(name, hi)] / medians[(name, lo)]
            if ratio > 3.0:
                bad.append(f"{name} m={hi}: x{ratio:.2f}")
    detail = ", ".join(
        f"{name} {m // 1000}k={medians[(name, m)] * 1000:.0f}ms"
        for name in ("ggst", "tarjan-sil")
        for m in (200_000, 400_000, 800_000))
    report(7, not bad,
           f"exec-phase medians over {reps} reps: {detail}; "
           f"growth per doubling <= 3.0"
           + (f"; violations: {bad}" if bad else ""))


def test_criterion_8_strategy_equivalence():
    t0 = time.perf_counter()
    failed = None
    for seed in range(10_000):
        try:
            run_queue_sequence(seed, nops=12)
        except AssertionError as exc:
            failed = f"seed {seed}: {exc}"
            break
    elapsed = time.perf_counter() - t0
    report(8, failed is None,
           failed or f"10^4 randomized queue sequences drained identically "
                     f"across matrix/heap/sil vs sorted oracle, {elapsed:.1f}s")
