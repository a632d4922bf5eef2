#!/usr/bin/env python3
"""visitscope benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: geolife-cold, geolife-reconfig, gmm-sweep (see bench/README.md).
Inputs are generated from --seed under bench/work/ and removed afterwards. The
timed loop runs in one child process (bench/worker.py) that imports the
program from src/ and runs whole rounds until --seconds have passed; wall_s
is the median round. Every output is checked; the last line of standard output
is one JSON object with correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Results and spans are also written under bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("geolife-cold", "geolife-reconfig", "gmm-sweep")
SETUP_REPEATS = 5
RUN_BUDGET_S = 170.0
PREP_JOBS = max(1, min(2, os.cpu_count() or 1))
# one generated user tree: 10 users x 15 days, 43k fixes, one of each planted
# fault (gap, teleport) and two weekend trips; geolife-cold draws a new tree
# for every round, geolife-reconfig edits one
TREE = dict(n_users=10, n_gap=1, n_teleport=1, n_trip=2)
# gmm-sweep draws a new matrix for every round. Over-fitted cells creep to tol
# at a pace set by the matrix: at the default cap of 500 a sweep's EM iteration
# count spread by 0.15 of its median over ten seeds, at a cap of 100 by 0.03.
GMM = dict(rows=500, k_max=21, sweep_restarts=2, max_iter=100, planted_k=5)

# geolife-reconfig: the base config, then cumulative edits, each followed by
# `visitscope all`. The base turns the 84-cell BIC sweep off, as one would
# while iterating on a config: its EM iteration count depends on the tree
# (1,393 to 4,898 over seeds 11-18), and a run has only one tree. gmm-sweep
# and geolife-cold time the sweep.
RECONFIG_BASE = {"model": {"run_sweep": False}}
EDITS = (
    ("tau", {"quality": {"tau_hours": 4.0}}),
    ("t_days", {"quality": {"t_days": 7}}),
    ("cov_kind", {"model": {"cov_kind": "full"}}),
    ("k_m", {"patterns": {"k_m": 4}}),
    ("unchanged", {}),
)


class BenchError(Exception):
    pass


class Runner:
    """Starts the child processes of one benchmark run within its time budget."""

    def __init__(self, work: str):
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, BENCH, os.environ.get("PYTHONPATH")) if p)

    def _start(self, args: list, log: str, stdout=subprocess.DEVNULL) -> subprocess.Popen:
        with open(os.path.join(self.work, log), "w") as err:
            return subprocess.Popen([sys.executable, os.path.join(BENCH, "worker.py"), *args],
                                    stdout=stdout, stderr=err, env=self.env, cwd=ROOT, text=True)

    def _finish(self, proc: subprocess.Popen, log: str) -> str:
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker {log} did not finish within the run budget")
        if proc.returncode != 0:
            with open(os.path.join(self.work, log)) as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"worker {log} exited with {proc.returncode}:\n{tail}")
        return out or ""

    def call(self, args: list, log: str) -> str:
        return self._finish(self._start(args, log, subprocess.PIPE), log)

    def parallel(self, jobs: list) -> None:
        """(args, log) jobs, at most PREP_JOBS at a time; all are reaped on error."""
        pending, running = list(jobs), []
        try:
            while pending or running:
                while pending and len(running) < PREP_JOBS:
                    args, log = pending.pop(0)
                    running.append((self._start(args, log), log))
                done = [job for job in running if job[0].poll() is not None]
                for proc, log in done:
                    running.remove((proc, log))
                    self._finish(proc, log)
                if not done:
                    if time.monotonic() > self.deadline:
                        raise BenchError("set-up runs did not finish within the run budget")
                    time.sleep(0.05)
        finally:
            for proc, _ in running:
                proc.kill()
                proc.wait()

    def setup_s(self, workload: str, config: str | None) -> float:
        """Median of fresh-process import + config load times."""
        args = ["setup", workload] + ([config] if config else [])
        return statistics.median(float(self.call(args, "setup.log")) for _ in range(SETUP_REPEATS))


def write_config(path: str, cfg: dict) -> str:
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def merged(edits) -> dict:
    """Config sections of the base config followed by ``edits``."""
    sections: dict = {}
    for edit in [RECONFIG_BASE] + [edit for _, edit in edits]:
        for name, values in edit.items():
            sections.setdefault(name, {}).update(values)
    return sections


def prepare(workload: str, seed: int, runner: Runner) -> tuple[dict, dict]:
    """Inputs, untimed set-up and the spec of the timed loop. Returns (spec, context)."""
    import gen

    work = runner.work
    spec: dict = {"workload": workload, "work": work, "seed": seed}
    if workload == "gmm-sweep":
        spec["gmm"] = GMM
        return spec, {"setup_config": None}

    spec["tree"] = TREE
    data = gen.make_geolife(os.path.join(work, "geo"), seed, **TREE)
    setup_config = write_config(os.path.join(work, "setup.json"),
                                gen.geolife_config(data, os.path.join(work, "setup-out")))
    ctx = {"data": data, "setup_config": setup_config}
    if workload == "geolife-cold":  # the worker draws its own trees
        return spec, ctx

    # geolife-reconfig: a from-scratch base run and one from-scratch reference per edit
    refs = [os.path.join(work, "base")] + [os.path.join(work, f"ref{i + 1}") for i in range(len(EDITS))]
    jobs = []
    for i, ref in enumerate(refs):
        if i and not EDITS[i - 1][1]:  # an empty edit shares the previous reference
            refs[i] = refs[i - 1]
            continue
        cfg = write_config(ref + ".json", gen.geolife_config(data, ref, **merged(EDITS[:i])))
        jobs.append((["scratch", cfg], f"scratch{i}.log"))
    runner.parallel(jobs)
    run = os.path.join(work, "rc")
    spec.update({
        "base": refs[0],
        "refs": refs[1:],
        "run": run,
        "records": data.n_records,
        "edits": [name for name, _ in EDITS],
        "configs": [
            write_config(os.path.join(work, f"edit{i + 1}.json"),
                         gen.geolife_config(data, run, **merged(EDITS[:i + 1])))
            for i in range(len(EDITS))
        ],
    })
    ctx["checked"] = sorted(set(refs))
    return spec, ctx


def check(out: dict, ctx: dict) -> list:
    """Problems the worker found in each round's outputs, plus the reference trees' own checks."""
    import checks

    return out["problems"] + [f"{os.path.basename(t)}: {p}" for t in ctx.get("checked", ())
                              for p in checks.check_geolife_run(t, ctx["data"])]


def run(args) -> dict:
    work = os.path.join(BENCH, "work", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    results = os.path.join(BENCH, "results")
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        runner = Runner(work)
        spec, ctx = prepare(args.workload, args.seed, runner)
        setup_s = runner.setup_s(args.workload, ctx["setup_config"])
        spec.update({"seconds": args.seconds, "trace": bool(args.trace),
                     "spans": os.path.join(results, f"spans-{args.workload}-seed{args.seed}.jsonl")})
        spec_path = write_config(os.path.join(work, "spec.json"), spec)
        runner.call(["measure", spec_path], "measure.log")
        with open(spec_path + ".out.json") as fh:
            out = json.load(fh)
        problems = check(out, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for r in out["rounds"] for op in r["ops"]]
    for op in ops:
        if op["error"]:
            print(f"failed op{' ' + op['edit'] if 'edit' in op else ''}: {op['error']}", file=sys.stderr)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    rounds = out["rounds"]
    if args.trace:
        metrics = out["layer"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall"] for r in rounds), "unit": "s"},
            "records_per_s": {"value": statistics.median(r["records"] / r["wall"] for r in rounds), "unit": "1/s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    result = {"correct": not problems, "attempted": len(ops), "failed": sum(1 for op in ops if op["error"]),
              "metrics": metrics}
    with open(os.path.join(results, tag + ".json"), "w") as fh:
        json.dump(dict(result, rounds=[{k: r[k] for k in ("traced", "wall", "records", "ops")}
                                       for r in rounds], problems=problems), fh, indent=1)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "visitscope", "cli.py")):
        print(f"bench: no visitscope sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    m = result["metrics"]
    print(f"{args.workload} seed {args.seed}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}; " + ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in m.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
