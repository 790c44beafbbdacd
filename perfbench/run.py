"""Benchmark of the declqg library: one workload, one closed-loop caller.

    python3 perfbench/run.py --workload tune-demos --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory, so nothing needs installing.  BLAS and OpenMP threads are
pinned to one before numpy is imported.

With ``--trace 0`` the run reports every end-to-end metric of
``BENCHMARK.json``: it sets up, then issues calls for ``--seconds`` of step
time, with further cold set-ups spread between the steps.
With ``--trace 1`` it sets up once and runs a fixed number of steps, each
twice: once plain and once with the tracer's wrappers installed.  It reports
every per-layer metric, and writes the spans and their rollup under
``perfbench/out/``.  The traced minus the plain timings of the same steps is
the tracing overhead.

End-to-end metrics: ``setup_s`` (median of fifteen cold set-ups, each from
before ``import declqg`` to the end of the workload's set-up, warm-up call
included: one in this process, fourteen in fresh interpreters started with
``--setup-only`` at even intervals through the run); ``work_per_s`` (work units per second of the main call:
tune evaluations, rollouts or solves); ``followup_ms_p50`` (median followup
call, see ``workloads.py``); ``peak_rss_mb`` (the process's ``ru_maxrss``).
Every reported time is scaled to a nominal host speed by the reference kernel
timed before and after each set-up and step (``reference.py``); the report also
carries the raw timings and the kernel times.

The last line of standard output is the result object; the line before it is
the full report: every metric under its generic name and under the workload's
own name (``tune_evals_per_s``, ``rollouts_per_s``, ``solve_ms_p50``, ...),
the main call's latency ``call_ms_p50``/``call_ms_p90`` (in a closed loop
``call_ms_p50`` is the reciprocal of ``work_per_s``, so it is not bounded on
its own), ``failed_frac``, the environment, raw timings and any gate
failures.  Exit status: 0 when every gate passed, 1 when one failed, 2 when
the run could not start.  ``--size tiny`` shrinks every input, for
``selftest.py``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse   # noqa: E402
import json       # noqa: E402
import resource   # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys        # noqa: E402
from pathlib import Path   # noqa: E402
from time import perf_counter   # noqa: E402

from envinfo import environment   # noqa: E402
from spans import Tracer   # noqa: E402
from stats import percentile   # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_CHILDREN = 14     # cold set-ups in fresh interpreters, besides ours


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the self-test")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one cold set-up, print it and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def cold_setup(args):
    """Import declqg and set the workload up: (workload, recorder, seconds).

    The interval starts before ``import declqg`` (numpy is first imported
    there too) and ends after the set-up's warm-up call, so it includes every
    import, lazy initialisation and first-call cost a user pays once.
    """
    t0 = perf_counter()
    import declqg   # noqa: F401
    from workloads import WORKLOADS, Recorder
    wl = WORKLOADS[args.workload](args.seed, args.size == "tiny")
    rec = Recorder()
    wl.setup(rec)
    return wl, rec, perf_counter() - t0


def child_setup_seconds(args) -> float:
    """One cold set-up, timed in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size,
           "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def calibrate(rec, kernels: list) -> None:
    """Time the reference kernel; the timings that follow refer to it."""
    from reference import kernel_samples
    kernels.append(kernel_samples())
    rec.at = len(kernels) - 1


def run_plain(args, wl, rec, cold_s: float, kernels: list) -> dict:
    from reference import scales
    rec.calibrate = lambda: calibrate(rec, kernels)
    calibrate(rec, kernels)
    setups = [(cold_s, rec.at)]
    wl.reference(rec)
    timed = 0.0     # seconds spent in steps; set-ups and calibrations excluded
    i = 0
    while True:
        # the cold set-ups are spread over the run, so that they sample its
        # fast and slow phases as the steps do
        while (len(setups) <= SETUP_CHILDREN and
               timed >= (len(setups) - 1) * args.seconds / SETUP_CHILDREN):
            calibrate(rec, kernels)
            setups.append((child_setup_seconds(args), rec.at))
        calibrate(rec, kernels)
        t0 = perf_counter()
        wl.step(rec, i)
        timed += perf_counter() - t0
        i += 1
        if (i % wl.cycle == 0 and timed >= args.seconds
                and len(setups) > SETUP_CHILDREN):
            break
    calibrate(rec, kernels)
    sc = scales(kernels)
    rec.setups = [dt * sc[at] for dt, at in setups]
    main = rec.scaled("plain", "main", sc)
    followup = rec.scaled("plain", "followup", sc)
    if not main or not followup:
        raise RuntimeError("no successful timed calls to report")
    # medians per input (tune-demos cycles over five demos of different
    # cost), then one round over the inputs: a median over the mixed calls
    # would jump between demos from run to run
    per_key: dict = {}
    for (units, key), t in zip(rec.units, main):
        per_key.setdefault(key, ([], []))
        per_key[key][0].append(units)
        per_key[key][1].append(t)
    round_units = sum(statistics.median(u) for u, _ in per_key.values())
    round_s = sum(statistics.median(t) for _, t in per_key.values())
    return {
        "setup_s": statistics.median(rec.setups),
        "work_per_s": round_units / round_s,
        "call_ms_p50": 1e3 * round_s / len(per_key),   # report only
        "call_ms_p90": 1e3 * percentile(main, 90),
        "followup_ms_p50": 1e3 * percentile(followup, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(wl, rec, tracer, kernels: list) -> tuple[dict, dict]:
    from reference import scales
    rec.calibrate = lambda: calibrate(rec, kernels)
    calibrate(rec, kernels)
    with tracer.installed():
        with tracer.span("bench.setup"):
            wl.setup(rec)
        wl.reference(rec)
    for i in range(wl.trace_steps):
        calibrate(rec, kernels)
        # alternate which of the pair goes first, so order bias cancels
        if i % 2:
            with tracer.installed():
                wl.step(rec, i)
        wl.step(rec, i)
        if not i % 2:
            with tracer.installed():
                wl.step(rec, i)
    calibrate(rec, kernels)
    overhead = {}
    sc = scales(kernels)
    for kind in ("main", "followup"):
        plain = rec.scaled("plain", kind, sc)
        traced = rec.scaled("traced", kind, sc)
        if plain and traced:
            overhead[kind] = {"plain_ms_p50": 1e3 * statistics.median(plain),
                              "traced_ms_p50": 1e3 * statistics.median(traced),
                              "samples": len(traced)}
            overhead[kind]["overhead_frac"] = (
                overhead[kind]["traced_ms_p50"] / overhead[kind]["plain_ms_p50"]
                - 1.0)
    c = rec.counters

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = tracer.rollup(statistics.median(sc))
    metrics.update({
        "tune.evaluations": c.get("tune.evaluations", 0),
        "tune.improvements_per_eval": ratio(c.get("tune.improvements", 0),
                                            c.get("tune.evaluations", 0)),
        "sim.rollouts": c.get("sim.rollouts", 0),
        "sim.primitives_bytes_computed": c.get("sim.primitives_bytes", 0),
        "sim.streams_per_rollout": ratio(tracer.count("core.seeded_stream"),
                                         c.get("sim.rollouts", 0)),
        "estimator.token_traces_per_gains_call": ratio(
            tracer.count("infostructure.token_trace"),
            tracer.count("estimator.delayed_stat_gains")),
        "trace.overhead_frac": overhead.get("main", {}).get("overhead_frac",
                                                            0.0),
    })
    return metrics, overhead


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "declqg" / "__init__.py").is_file():
        print(f"perfbench: no declqg sources under {SRC}", file=sys.stderr)
        return 2
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(w["name"] for w in spec["workloads"]),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if not args.trace:
        wl, rec, cold_s = cold_setup(args)
        if args.setup_only:
            print(json.dumps({"setup_s": cold_s}))
            return 0
    import declqg
    if not Path(declqg.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported declqg from {declqg.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    tiny = args.size == "tiny"
    kernels: list[list[float]] = []
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "size": args.size, "run_id": run_id,
              "environment": environment(args.seed)}
    if args.trace:
        from workloads import WORKLOADS, Recorder
        wl = WORKLOADS[args.workload](args.seed, tiny)
        tracer = Tracer(args.workload, run_id)
        rec = Recorder(tracer)
        values, overhead = run_traced(wl, rec, tracer, kernels)
        wanted = spec["per_layer"]
        OUT.mkdir(exist_ok=True)
        stem = f"trace-{args.workload}-seed{args.seed}" + ("-tiny" if tiny else "")
        tracer.write(OUT / f"{stem}.csv.gz")
        report["trace_files"] = [f"{stem}.csv.gz", f"{stem}.json"]
        report["tracing_overhead"] = overhead
        report["missing_targets"] = tracer.missing
    else:
        values = run_plain(args, wl, rec, cold_s, kernels)
        wanted = spec["end_to_end"]
    failed = len(rec.failed_calls)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    units = {m["name"]: m["unit"] for m in wanted}
    units.update(call_ms_p50="ms", call_ms_p90="ms")   # report only
    named = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for generic, alias in wl.aliases.items():
        if generic in named:
            named[alias] = named[generic]
    named["failed_frac"] = {"value": failed / max(rec.attempted, 1),
                            "unit": "ratio"}
    report.update(metrics=named, attempted=rec.attempted, failed=failed,
                  failures=rec.failures, setup_s_samples=rec.setups,
                  raw_call_ms={m: {k: [round(1e3 * dt, 4) for dt, _ in v]
                                   for k, v in kinds.items()}
                               for m, kinds in rec.raw.items()},
                  kernel_ms=[[round(1e3 * x, 4) for x in c] for c in kernels])
    if args.trace:
        with open(OUT / f"{stem}.json", "w") as fh:
            json.dump(report, fh, indent=1)
    result = {"correct": failed == 0, "attempted": rec.attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
