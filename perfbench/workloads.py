"""Benchmark workloads: their generator parameters and their set-up.

Each workload is one instance family. Set-up turns the benchmark seed into
instance files on disk; the solvers see only those files. Every family has
``main`` instances for the configurations that fit them, and ``matrix``
instances of the same family, smaller, for ``tarjan-matrix``, whose dense
per-vertex rows are O(n^2) and cannot fit at the main size.
"""

from __future__ import annotations

import time
from pathlib import Path

from dmst import SplitMix64, gen_antilemon, gen_er_rooted, serialize

ALGOS = ("ggst", "tarjan-sil", "tarjan-heap", "tarjan-matrix")
MAX_W = 1000
# Instances per kind and run. How much work a random instance takes varies
# with its seed (the contraction count of an er-rooted graph ranges over
# tens to hundreds); cycling through several evens that out in the median.
INSTANCES = 6

# Sizes keep one solve at about 0.05-1.2 s on a 2-core machine, so that a
# run of a few tens of seconds holds several solves of every configuration.
# BENCHMARK.json and perfbench/README.md give the reason for each workload.
WORKLOADS = {
    "er-sparse": {"family": "er", "n": 12_000, "m": 48_000, "matrix_size": 2_000},
    "antilemon": {"family": "antilemon", "k": 12_000, "matrix_size": 1_000},
    "superroot": {"family": "plain", "labels": 12_000, "lines": 48_000,
                  "components": 12, "matrix_size": 2_000},
}


def scaled(name: str, factor: float) -> dict:
    """The workload's spec with every size multiplied by ``factor``; the
    self-test runs the families this way at desk scale."""
    spec = dict(WORKLOADS[name])
    for key in ("n", "m", "k", "labels", "lines", "matrix_size"):
        if key in spec:
            spec[key] = max(4, int(spec[key] * factor))
    return spec


def derive_seed(seed: int, salt: int) -> int:
    """Independent generator seed per instance and purpose."""
    return SplitMix64(seed * 1_000_003 + salt).next_u64()


def _shuffle(items: list, rng: SplitMix64) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


def antilemon_text(k: int, seed: int) -> str:
    """gen_antilemon(k) with the chain vertices relabelled and the edge
    order shuffled by the seed. The root stays k; the optimum stays k."""
    graph = gen_antilemon(k)
    rng = SplitMix64(seed)
    label = list(range(k))
    _shuffle(label, rng)
    label.append(k)
    lines = [f"{label[e.origin]} {label[e.target]} {e.weight}"
             for e in graph.edges]
    _shuffle(lines, rng)
    return f"{k + 1} {len(lines)} {k}\n" + "\n".join(lines) + "\n"


def plain_text(labels: int, lines: int, components: int, seed: int) -> str:
    """Konect-style headerless ``u v`` list.

    Vertices carry distinct 9-digit labels. Most of them form one giant weak
    component; the rest split into ``components - 1`` small ones. Each
    component is tied together by a random tree whose edges point either
    way; the remaining lines join endpoints drawn with a power skew, so a
    few hubs collect most edges and many vertices have no in-edge at all
    (those take a super-root edge).
    """
    rng = SplitMix64(seed)
    seen: set[int] = set()
    label: list[int] = []
    while len(label) < labels:
        lab = 100_000_000 + rng.below(900_000_000)
        if lab not in seen:
            seen.add(lab)
            label.append(lab)
    small = max(1, labels // (20 * max(components, 1)))
    sizes = [small] * (components - 1)
    sizes.insert(0, labels - sum(sizes))
    pairs: list[tuple[int, int]] = []
    starts = []
    base = 0
    for size in sizes:
        starts.append(base)
        for i in range(1, size):
            a, b = base + i, base + rng.below(i)
            pairs.append((a, b) if rng.below(2) else (b, a))
        base += size
    scale = 1 << 32
    while len(pairs) < lines:
        # pick a component in proportion to its size, then skewed endpoints
        x = rng.below(labels)
        c = 0
        while c + 1 < len(starts) and starts[c + 1] <= x:
            c += 1
        size = sizes[c]
        fu = rng.below(scale) / scale
        fv = rng.below(scale) / scale
        pairs.append((starts[c] + int(size * fu ** 3),
                      starts[c] + int(size * fv ** 2)))
    _shuffle(pairs, rng)
    head = f"% asym unweighted\n% {len(pairs)} {labels} {labels}\n"
    return head + "".join(f"{label[u]} {label[v]}\n" for u, v in pairs)


def instance_of(algo: str, rep: int) -> str:
    """Name of the instance that ``algo`` solves on its ``rep``-th solve:
    the configurations cycle through the workload's instances."""
    kind = "matrix" if algo == "tarjan-matrix" else "main"
    return f"{kind}{rep % INSTANCES}"


def instance_text(spec: dict, kind: str, seed: int) -> str:
    """One instance of the workload's family; ``kind`` is main or matrix."""
    fam = spec["family"]
    size = spec.get("matrix_size") if kind == "matrix" else None
    if fam == "er":
        n = size or spec["n"]
        return serialize(gen_er_rooted(n, n * spec["m"] // spec["n"], MAX_W, seed))
    if fam == "antilemon":
        return antilemon_text(size or spec["k"], seed)
    labels = size or spec["labels"]
    return plain_text(labels, labels * spec["lines"] // spec["labels"],
                      spec["components"], seed)


def instance_texts(spec: dict, seed: int) -> dict[str, str]:
    """Instance name -> file text for one workload."""
    return {f"{kind}{i}": instance_text(spec, kind, derive_seed(seed, 10 * i + j))
            for j, kind in enumerate(("main", "matrix")) for i in range(INSTANCES)}


def set_up(spec: dict, seed: int, out_dir: Path) -> float:
    """Generate and write the workload's instance files; returns the
    seconds that took."""
    t0 = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    texts = instance_texts(spec, seed)
    for name, text in texts.items():
        (out_dir / f"{name}.txt").write_text(text, encoding="ascii")
    return time.perf_counter() - t0

