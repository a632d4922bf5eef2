"""Child processes of the benchmark; each mode imports visitscope only where it needs it.

    worker.py setup <workload> [config]   time import + config load, print seconds
    worker.py scratch <config>            one from-scratch `visitscope all`
    worker.py measure <spec.json>         the timed loop; writes <spec>.out.json
"""

import time

T0 = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def setup(workload: str, config: str | None) -> None:
    if workload == "gmm-sweep":
        import visitscope.model  # noqa: F401
    else:
        from visitscope import cli

        cli.load_config(cli.build_parser().parse_args(["all", "--config", config]))
    print(time.perf_counter() - T0)


def scratch(config: str) -> int:
    from visitscope import cli

    return cli.main(["all", "--config", config])


def _cli_op(config: str) -> dict:
    """One `visitscope all`, timed; an exception or non-zero exit fails the operation."""
    from visitscope import cli

    gc.collect()
    t0 = time.perf_counter()
    try:
        rc = cli.main(["all", "--config", config])
        error = None if rc == 0 else f"exit code {rc}"
    except Exception as exc:  # the op fails; the benchmark goes on
        error = f"{type(exc).__name__}: {exc}"
    return {"wall": time.perf_counter() - t0, "error": error}


def cold_round(spec: dict, i: int, state: dict) -> list:
    """`visitscope all` into an empty directory on the i-th tree of the seed, then its checks."""
    import gen
    from checks import check_geolife_run

    geo = os.path.join(spec["work"], f"geo{i}")
    data = gen.make_geolife(geo, spec["seed"], index=i, **spec["tree"])
    run = os.path.join(spec["work"], f"cold{i}")
    config = run + ".json"
    with open(config, "w") as fh:
        json.dump(gen.geolife_config(data, run), fh)
    op = _cli_op(config)
    op["records"] = data.n_records
    if op["error"] is None:
        state["problems"] += [f"tree {i}: {p}" for p in check_geolife_run(run, data)]
        if state.get("store"):  # keep only the newest run, for trace_bytes_per_record
            shutil.rmtree(state["store"], ignore_errors=True)
        state["store"] = run
    shutil.rmtree(geo, ignore_errors=True)
    return [op]


def reconfig_round(spec: dict, i: int, state: dict) -> list:
    """Restore the base run, then each config edit followed by `visitscope all`."""
    from checks import tree_diff, tree_digest

    if "refs" not in state:
        state["refs"] = [tree_digest(ref) for ref in spec["refs"]]
    run = spec["run"]
    shutil.rmtree(run, ignore_errors=True)
    shutil.copytree(spec["base"], run)
    ops = []
    for name, config, want in zip(spec["edits"], spec["configs"], state["refs"]):
        op = _cli_op(config)
        if op["error"] is None:
            diff = tree_diff(tree_digest(run), want)
            if diff:
                op["error"] = f"differs from a from-scratch run in {diff}"
        op["edit"] = name
        op["records"] = spec["records"]
        ops.append(op)
    state["store"] = run
    return ops


def gmm_round(spec: dict, i: int, state: dict) -> list:
    """Sweep and selected fit on the i-th matrix of the seed, then their checks."""
    import gen
    from checks import check_gmm
    from visitscope import model

    g = spec["gmm"]
    x = gen.make_gmm_matrix(spec["seed"], g["rows"], index=i)
    sweep_params = model.GmmParams(n_init=g["sweep_restarts"], max_iter=g["max_iter"])
    fit_params = model.GmmParams(k=7, cov_kind="tied", n_init=5, max_iter=g["max_iter"])
    gc.collect()
    t0 = time.perf_counter()
    error = None
    try:
        result = model.sweep(x, k_max=g["k_max"], params=sweep_params, selected=(7, "tied"))
        fit = model.fit_gmm(x, fit_params)
    except Exception as exc:  # the op fails; the benchmark goes on
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    if error is None:
        cells = [
            {"k": c.k, "cov_kind": c.cov_kind, "loglik": c.loglik, "bic": c.bic, "aic": c.aic, "error": c.error}
            for c in result.rows()
        ]
        state["problems"] += [f"matrix {i}: {p}" for p in check_gmm(x, cells, fit.to_dict(), g["planted_k"])]
    fits = g["k_max"] * len(model.COV_KINDS) + 1  # sweep cells plus the selected fit
    return [{"wall": wall, "error": error, "records": len(x) * fits}]


ROUNDS = {"geolife-cold": cold_round, "geolife-reconfig": reconfig_round, "gmm-sweep": gmm_round}


def trace_bytes_per_record(store: str) -> float:
    """Python heap held by read_traces' result, per record (tracemalloc)."""
    import tracemalloc

    from visitscope import ingest

    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    traces = ingest.read_traces(os.path.join(store, "ingest"))
    held = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    n = sum(len(t) for t in traces.values())
    return held / n if n else 0.0


def measure(spec_path: str) -> None:
    """Whole rounds until --seconds have passed.

    The program and the checks are imported before the first round. A traced
    run alternates untraced and traced rounds; the difference of their
    medians is the tracing overhead.
    """
    import checks  # noqa: F401
    import gen  # noqa: F401
    from visitscope import cli, model  # noqa: F401

    with open(spec_path) as fh:
        spec = json.load(fh)
    round_fn = ROUNDS[spec["workload"]]
    tracer = None
    if spec["trace"]:
        from tracing import PER_LAYER, Tracer

        tracer = Tracer()
    state: dict = {"problems": []}
    rounds = []
    t_start = time.perf_counter()
    while True:
        i = len(rounds)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
            mark = tracer.mark()
        try:
            ops = round_fn(spec, i, state)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append({"traced": traced, "ops": ops,
                       "wall": sum(op["wall"] for op in ops), "records": sum(op["records"] for op in ops)})
        if traced:
            rounds[-1]["layer"] = tracer.round_metrics(mark)
        if time.perf_counter() - t_start >= spec["seconds"] and (tracer is None or len(rounds) >= 2):
            break
    out = {"rounds": rounds, "problems": state["problems"],
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.write(spec["spans"])
        layer = [r.pop("layer") for r in rounds if r["traced"]]
        values = {name: statistics.median(m[name] for m in layer) for name in PER_LAYER}
        values["trace.overhead_s"] = (statistics.median(r["wall"] for r in rounds if r["traced"])
                                      - statistics.median(r["wall"] for r in rounds if not r["traced"]))
        if state.get("store"):
            values["ingest.trace_bytes_per_record"] = trace_bytes_per_record(state["store"])
        out["layer"] = {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    with open(spec_path + ".out.json", "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(args[0], args[1] if len(args) > 1 else None)
    elif mode == "scratch":
        sys.exit(scratch(args[0]))
    elif mode == "measure":
        measure(args[0])
    else:
        sys.exit(f"unknown mode {mode!r}")
