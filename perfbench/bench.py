"""The benchmark behind perfbench/run.py.

Set-up generates the workload's instance files from the seed, several
times, and the median time is reported. Then a closed loop with one client
runs one solve at a time until ``--seconds`` have passed. Every set-up and
solve runs in a fresh process forked by perfbench/worker.py, and a
reference job runs before the first and after each of them. Every solve's
answer is checked afterwards.

The machine's speed changes by tens of percent within seconds with other
tenants' load, so two runs of the same code differ by more than any useful
bound. Every reported time is therefore the measured wall time rescaled to
the machine's reference speed: multiplied by ``REFERENCE_S`` over the
median time of the six reference jobs nearest the timed job, three before
and three after it. The reference job uses no dmst code, so a change to
dmst moves the rescaled times as much as the wall times.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W
from dmst import (attach_super_root, is_arborescence, parse_edge_list,
                  parse_plain_edge_list, sample_weights, tarjan_solve)

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
SETUP_REPS = 3
# Time of worker.reference_work at the machine's usual speed: about the
# median of its runs on the 2-core machine used (Python 3.11.7). Reported
# times are wall times rescaled to that speed.
REFERENCE_S = 0.09
REFERENCE_WINDOW = 3  # reference jobs on each side of a timed job
JOB_BUDGET_S = 60.0  # a job that runs longer is killed; a solve counts failed
# The configurations in the order one round of the loop runs them. A
# tarjan-matrix solve of the small instances is two to six times shorter
# than the others' and noisier for it, so it runs twice per round.
ROUND = W.ALGOS + ("tarjan-matrix",)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


class Worker:
    """The process that forks each job (perfbench/worker.py). It takes one
    job at a time, so the loop is closed with one client."""

    def __init__(self, env: dict, err: Path):
        with open(err, "wb") as err_file:
            self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         stderr=err_file, env=env, text=True)

    def run(self, job: dict) -> dict:
        """Run ``job``; returns the worker's answer, with the job's result
        merged in when its process exited cleanly."""
        job = dict(job, budget=JOB_BUDGET_S)
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker process died")
        answer = json.loads(line)
        if answer["status"] == 0:
            answer.update(json.loads(Path(job["result"]).read_text()))
        return answer

    def reference(self, work: Path) -> float:
        """Run the reference job; the seconds it took."""
        answer = self.run({"route": "reference",
                           "result": str(work / "reference.json")})
        if answer["status"] != 0:
            raise RuntimeError(f"reference job failed, see {work / 'worker.err'}")
        return answer["reference_s"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=JOB_BUDGET_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def local_scale(refs: list[float], after: int) -> float:
    """The factor that rescales a job's wall time to the reference speed;
    ``refs[after]`` is the reference job that ran right after it."""
    near = refs[max(0, after - REFERENCE_WINDOW):after + REFERENCE_WINDOW]
    return REFERENCE_S / statistics.median(near)


def set_up(worker: Worker, refs: list[float], spec: dict, seed: int,
           work: Path) -> list[tuple[float, int]]:
    """Generate the instance files SETUP_REPS times, with a reference job
    after each; per set-up, its wall time and the index of that job."""
    times = []
    for rep in range(SETUP_REPS):
        answer = worker.run({"route": "setup", "spec": spec, "seed": seed,
                             "dir": str(work / "inst"),
                             "result": str(work / f"setup-{rep}.json")})
        if answer["status"] != 0:
            raise RuntimeError(f"set-up failed, see {work / 'worker.err'}")
        refs.append(worker.reference(work))
        times.append((answer["setup_s"], len(refs) - 1))
    return times


def run_solves(worker: Worker, refs: list[float], spec: dict, seed: int,
               seconds: float, trace: bool, work: Path) -> list[dict]:
    """The closed loop: one solve at a time, each followed by a reference
    job. In each round every configuration solves its next instance, as
    often as ``ROUND`` names it; rounds go on until the time is up and
    every configuration has solved each of its instances."""
    route = "superroot" if spec["family"] == "plain" else "cli"
    records = []
    solved = dict.fromkeys(W.ALGOS, 0)
    start = time.monotonic()
    rounds = 0
    while rounds < W.INSTANCES or time.monotonic() - start < seconds:
        for algo in ROUND:
            inst = W.instance_of(algo, solved[algo])
            solved[algo] += 1
            for traced in ((False, True) if trace else (False,)):
                i = len(records)
                job = {"algo": algo, "route": route, "trace": traced,
                       "solve_id": f"{algo}#{i}", "instance": inst,
                       "path": str(work / "inst" / f"{inst}.txt"),
                       "out": str(work / f"out-{i}.txt"),
                       "result": str(work / f"solve-{i}.json"),
                       "weight_seed": W.derive_seed(seed, 3), "max_w": W.MAX_W}
                answer = worker.run(job)
                refs.append(worker.reference(work))
                rec = dict(answer, job=job, error=None, ref=len(refs) - 1)
                if answer["timed_out"]:
                    rec["error"] = "time budget exceeded"
                elif answer["status"] != 0:
                    rec["error"] = f"solve process exit status {answer['status']}"
                elif rec["rc"] != 0:
                    rec["error"] = f"dmst exit code {rec['rc']}"
                records.append(rec)
        rounds += 1
    return records


def load_instances(spec: dict, seed: int, inst_dir: Path) -> dict:
    """Instance name -> the graph its solvers were given."""
    graphs = {}
    for path in sorted(inst_dir.glob("*.txt")):
        text = path.read_text(encoding="ascii")
        if spec["family"] == "plain":
            graphs[path.stem] = attach_super_root(sample_weights(
                parse_plain_edge_list(text), W.derive_seed(seed, 3), W.MAX_W))
        else:
            graphs[path.stem] = parse_edge_list(text)
    return graphs


def check_solves(spec: dict, records: list[dict], graphs: dict) -> None:
    """Set ``error`` on every record whose answer is wrong.

    The ids written must form an arborescence of the solved graph whose
    weight is the reported weight, and that weight must be the optimum:
    no other configuration may have found a lighter valid answer on the
    same instance, an instance solved by one configuration only is solved
    again with tarjan-sil here, and on antilemon the optimum is exactly k.
    """
    best: dict[str, int] = {}
    for rec in records:
        if rec["error"]:
            continue
        inst = rec["job"]["instance"]
        graph = graphs[inst]
        text = Path(rec["job"]["out"]).read_text(encoding="ascii")
        ids = [int(tok) for tok in text.split()]
        if not all(0 <= eid < len(graph.edges) for eid in ids) \
                or not is_arborescence(graph, ids):
            rec["error"] = "answer is not a spanning arborescence"
        elif sum(graph.edges[eid].weight for eid in ids) != rec["weight"]:
            rec["error"] = "answer weight differs from reported weight"
        else:
            best[inst] = min(best.get(inst, rec["weight"]), rec["weight"])
    solved_by = {}
    for rec in records:
        solved_by.setdefault(rec["job"]["instance"], set()).add(rec["job"]["algo"])
    for inst, graph in graphs.items():
        if spec["family"] == "antilemon":
            optimum = spec["matrix_size"] if inst.startswith("matrix") else spec["k"]
        elif len(solved_by.get(inst, ())) < 2:
            optimum = tarjan_solve(graph, "sil").total_weight
        else:
            optimum = best.get(inst)
        for rec in records:
            if not rec["error"] and rec["job"]["instance"] == inst \
                    and rec["weight"] != optimum:
                rec["error"] = f"weight {rec['weight']} is not the optimum {optimum}"


def end_to_end(records: list[dict], setup_times: list[float]) -> dict:
    """End-to-end metrics from rescaled times (see ``run_workload``)."""
    metrics = {}
    for algo in W.ALGOS:
        recs = [r for r in records if r["job"]["algo"] == algo
                and not r["job"]["trace"]]
        ok = [r["solve_s"] * r["scale"] for r in recs if not r["error"]]
        # a configuration that never succeeds reads as the budget
        solve_s = statistics.median(ok) if ok else JOB_BUDGET_S
        metrics[f"solve_s.{algo}"] = (solve_s, "s", len(ok))
        rss = statistics.median(r["peak_rss_mb"] for r in recs)
        metrics[f"peak_rss_mb.{algo}"] = (rss, "MB", len(recs))
    if setup_times:
        metrics["setup_s"] = (statistics.median(setup_times), "s", len(setup_times))
    return metrics


LAYER_OF = {"read": "io", "write": "io",
            "parse_edge_list": "graph", "parse_plain_edge_list": "graph",
            "sample_weights": "graph", "attach_super_root": "graph",
            "weak_components": "graph",
            "build_leaf_map": "recon", "reconstruct": "recon",
            "del": "teardown", "gc.collect": "teardown",
            "cli.main": "cli", "solve": "bench"}
# counters that only one configuration's layers keep
OWN_COUNTERS = {"ggst": ("af_queries", "af_deletes", "af_merges"),
                "tarjan-sil": ("queue_moves",), "tarjan-heap": ("melds",),
                "tarjan-matrix": ("cells_scanned",)}
GRAPH_SPANS = ("parse_edge_list", "parse_plain_edge_list", "sample_weights",
               "attach_super_root")


def layer_of(span_name: str, algo: str) -> str:
    if span_name in ("init", "run"):
        return "ggst+active_forest" if algo == "ggst" else "tarjan+queues"
    return LAYER_OF[span_name]


def self_times(spans: list[dict], algo: str) -> dict[str, float]:
    """Per layer, the summed span time not covered by child spans."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    out: dict[str, float] = {}
    for s, t in zip(spans, own):
        layer = layer_of(s["name"], algo)
        out[layer] = out.get(layer, 0.0) + t
    return out


def per_layer(spec: dict, records: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics from the traced solves, and the trace file body.
    Times are rescaled as in ``end_to_end``; the trace file keeps the wall
    times, and each solve's factor."""
    traced = [r for r in records if r["job"]["trace"] and not r["error"]]
    metrics = {}

    def put(name, values, unit):
        values = list(values)
        if values:
            metrics[name] = (statistics.median(values), unit, len(values))

    def per_instance(recs):
        """One record per instance. Counts are medians over instances,
        so they repeat exactly however many solves the run fitted in."""
        return list({r["job"]["instance"]: r for r in reversed(recs)}.values())

    def span_s(rec, *names):
        return rec["scale"] * sum(s["end"] - s["start"] for s in rec["spans"]
                                  if s["name"] in names)

    main_recs = [r for r in traced if r["job"]["instance"].startswith("main")]
    put("parse_s", (span_s(r, "parse_edge_list", "parse_plain_edge_list")
                    for r in main_recs), "s")
    put("graph_s", (span_s(r, *GRAPH_SPANS) for r in main_recs), "s")
    for algo in W.ALGOS:
        recs = [r for r in traced if r["job"]["algo"] == algo]
        put(f"init_s.{algo}", (span_s(r, "init") for r in recs), "s")
        put(f"exec_s.{algo}", (span_s(r, "run") for r in recs), "s")
        put(f"leafmap_s.{algo}", (span_s(r, "build_leaf_map") for r in recs), "s")
        put(f"recon_s.{algo}", (span_s(r, "reconstruct") for r in recs), "s")
        put(f"teardown_s.{algo}", (span_s(r, "del", "gc.collect") for r in recs), "s")
        once = per_instance(recs)
        put(f"gc_freed.{algo}", (r["gc_freed"] for r in once), "count")
        c = [r["counters"] for r in once]
        put(f"picks.{algo}", (x["picks"] for x in c), "count")
        put(f"contractions.{algo}", (x["contractions"] for x in c), "count")
        put(f"cycle_len_sum.{algo}", (x["summed_cycle_length"] for x in c), "count")
        put(f"wasted_pick_frac.{algo}",
            (1 - (r["n"] - 1) / r["counters"]["picks"] for r in once), "ratio")
        put(f"dsu_visits.{algo}", (x["dsu_visits"] for x in c), "count")
        put(f"dsu_visits_per_pick.{algo}",
            (x["dsu_visits"] / x["picks"] for x in c), "ratio")
        for name in OWN_COUNTERS[algo]:
            put(f"{name}.{algo}", (x.get(name, 0) for x in c), "count")
    untraced = end_to_end(records, [])
    both = [a for a in W.ALGOS if f"exec_s.{a}" in metrics
            and untraced[f"solve_s.{a}"][2]]
    plain = sum(untraced[f"solve_s.{a}"][0] for a in both)
    with_spans = sum(statistics.median(r["solve_s"] * r["scale"] for r in traced
                                       if r["job"]["algo"] == a) for a in both)
    metrics["trace_overhead_frac"] = ((with_spans - plain) / plain, "ratio",
                                      len(traced))
    body = {
        "spans": [s for r in traced for s in r["spans"]],
        "counters": {r["job"]["solve_id"]: r["counters"] for r in traced},
        "scale": {r["job"]["solve_id"]: r["scale"] for r in traced},
        "self_s": {r["job"]["solve_id"]: self_times(r["spans"], r["job"]["algo"])
                   for r in traced},
    }
    return metrics, body


def run_workload(name: str, spec: dict, seed: int, seconds: float, trace: bool,
                 src: Path, work: Path) -> dict:
    """Set up, measure and check one workload in the directory ``work``;
    returns the run's summary, with the trace file's body when traced.
    Each set-up and solve time is rescaled by its ``local_scale``."""
    work.mkdir(parents=True)
    worker = Worker(child_env(src), work / "worker.err")
    try:
        refs = [worker.reference(work)]
        setups = set_up(worker, refs, spec, seed, work)
        records = run_solves(worker, refs, spec, seed, seconds, trace, work)
    finally:
        worker.close()
    check_solves(spec, records, load_instances(spec, seed, work / "inst"))
    setup_times = [t * local_scale(refs, after) for t, after in setups]
    for rec in records:
        rec["scale"] = local_scale(refs, rec["ref"])
    summary = {"workload": name, "seed": seed, "records": records,
               "reference_s": refs,
               "attempted": len(records),
               "failed": sum(1 for r in records if r["error"])}
    if trace:
        summary["metrics"], body = per_layer(spec, records)
        summary["trace"] = dict(workload=name, seed=seed, **body)
    else:
        summary["metrics"] = end_to_end(records, setup_times)
    return summary


def report(summary: dict) -> None:
    print(f"workload {summary['workload']} seed {summary['seed']}")
    for name, (value, unit, samples) in summary["metrics"].items():
        print(f"  {name:32s} {value:14.6f} {unit:6s} median of {samples}")
    print(f"  {'failed_frac':32s} {summary['failed']}/{summary['attempted']} solves")
    scales = [r["scale"] for r in summary["records"]]
    print(f"  reference job: median {statistics.median(summary['reference_s']):.6f} s "
          f"of {len(summary['reference_s'])}; times above are wall times rescaled "
          f"to a reference job of {REFERENCE_S} s, by a median factor of "
          f"{statistics.median(scales):.4f}")
    for rec in summary["records"]:
        if rec["error"]:
            print(f"  failed {rec['job']['solve_id']}: {rec['error']}")
    if "trace_file" in summary:
        print(f"  spans, counters and self times in {summary['trace_file']}")


def result_line(summary: dict) -> str:
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit, _) in summary["metrics"].items()}
    return json.dumps({"correct": summary["failed"] == 0,
                       "attempted": summary["attempted"],
                       "failed": summary["failed"], "metrics": metrics})


def run_all(args) -> int:
    """Every workload in turn, each in its own run.py process so that the
    memory one workload's checks take never shows up in another's peak
    RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(args, root: Path) -> int:
    if args.workload == "all":
        return run_all(args)
    if args.workload not in W.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 64
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        summary = run_workload(args.workload, W.WORKLOADS[args.workload], args.seed,
                               args.seconds, bool(args.trace), root / "src", work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(summary["trace"]))
        summary["trace_file"] = str(trace_file.relative_to(root))
    report(summary)
    print(result_line(summary))
    return 0
