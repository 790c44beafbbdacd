"""Run the CLI on mutated demo configs and strategy files: every input must
end in bounded time with a documented exit code.

    python3 tools/fuzz_inputs.py --mutations 500 --jobs 2

Mutation i takes demo ``i % 5`` of ``declqg.cli.DEMOS`` and changes one or
two fields of its config, picked at random from every field and container
of the document (a generator seeded by ``--seed`` and i), to a hostile
value: ``"x"``, nan, inf, +-1e200, 1e308, a ragged list, ``{}``, a boolean,
or a deletion (of a row entry, too, which leaves a ragged matrix).  The
mutated config runs through ``validate``, ``solve``, ``simulate`` and
``tune`` (with small ``--rollouts`` and ``--budget``).  The same demo's
strategy file, as ``solve`` writes it, gets a mutation of its own (from a
second generator) and runs through ``simulate --strategy`` on the demo's
config.  Each run is a subprocess under ``--timeout`` seconds.  A run is
reported when it prints a traceback or a numpy ``RuntimeWarning``, exits
with a code other than 0, 2 or 3 (or 1 from ``validate``, which flags
protocol violations), times out, or exits 0 having written a JSON file
that holds NaN or an infinity.  The
script prints one line per finding and a summary, and exits 1 if it found
anything.  Only the standard library and the package under ``src/`` are
used.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from declqg.cli import (DEMOS, load_scenario,  # noqa: E402
                        strategy_to_doc)
from declqg.solver import solve  # noqa: E402

DELETE = object()
VALUES = ("x", float("nan"), float("inf"), float("-inf"), 1e200, -1e200,
          1e308, [[1.0], [1.0, 2.0]], {}, True, False, DELETE)
SIMULATE = ["--rollouts", "200", "--samples", "1"]
COMMANDS = {"validate": [], "solve": [], "simulate": SIMULATE,
            "tune": ["--budget", "20", "--restarts", "0"]}
STRATEGY = "simulate --strategy"    # the run of a mutated strategy file
DOCUMENTED = {0, 2, 3}


def fields(doc, prefix=()):
    """Path of every field and container below ``doc``."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from fields(value, prefix + (key,))


def mutate(doc: dict, rng: random.Random) -> tuple[dict, str]:
    """A copy of ``doc`` with one or two fields changed, and what changed."""
    doc, notes = copy.deepcopy(doc), []
    for _ in range(rng.choice((1, 2))):
        path = rng.choice(list(fields(doc)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        value = rng.choice(VALUES)
        name = ".".join(map(str, path))
        if value is DELETE:
            del parent[path[-1]]
            notes.append(f"del {name}")
        else:
            parent[path[-1]] = copy.deepcopy(value)
            notes.append(f"{name} = {json.dumps(value)}")
    return doc, "; ".join(notes)


def run(argv: list[str], out: Path, timeout: float):
    """(exit code or None on timeout, stderr) of the CLI run ``argv``,
    writing to ``out``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    argv = [sys.executable, "-m", "declqg.cli", "--out", str(out), *argv]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stderr


def non_finite(out: Path) -> bool:
    """True if a JSON file in ``out`` holds NaN, Infinity or -Infinity."""
    found = []
    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=found.append)
    return bool(found)


def finding(command: str, code, stderr: str, out: Path) -> str | None:
    """What is wrong with one run, or None."""
    if code is None:
        return "timeout"
    if "Traceback (most recent call last)" in stderr:
        return "traceback"
    if "RuntimeWarning" in stderr:
        return "runtime warning"
    if code not in DOCUMENTED and not (command == "validate" and code == 1):
        return f"exit {code}"
    if code == 0 and non_finite(out):
        return "non-finite output"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mutations", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--timeout", type=float, default=30.0)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)
    names = sorted(DEMOS)
    codes, found = Counter(), []
    with tempfile.TemporaryDirectory() as tmp:
        configs, strategies = {}, {}
        for name in names:
            configs[name] = Path(tmp) / f"{name}.json"
            configs[name].write_text(json.dumps(DEMOS[name]["config"]))
            sc = load_scenario(DEMOS[name]["config"])
            strategies[name] = strategy_to_doc(
                solve(sc.plant, sc.protocol, sc.gains))
        tasks = []      # (mutation, demo, what changed, command, argv)
        for i in range(args.mutations):
            name = names[i % len(names)]
            doc, what = mutate(DEMOS[name]["config"],
                               random.Random(f"{args.seed}:{i}"))
            config = Path(tmp) / f"mutation{i}.json"
            config.write_text(json.dumps(doc))
            tasks += [(i, name, what, command, [command, str(config), *extra])
                      for command, extra in COMMANDS.items()]
            doc, what = mutate(strategies[name],
                               random.Random(f"{args.seed}:strategy:{i}"))
            strategy = Path(tmp) / f"strategy{i}.json"
            strategy.write_text(json.dumps(doc))
            tasks.append((i, name, f"strategy {what}", STRATEGY,
                          ["simulate", str(configs[name]), "--strategy",
                           str(strategy), *SIMULATE]))

        def out(task) -> Path:
            i, _, _, command, _ = task
            return Path(tmp) / f"out{i}{command.replace(' ', '')}"

        def one(task):
            return run(task[-1], out(task), args.timeout)

        with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
            for task, (code, err) in zip(tasks, pool.map(one, tasks)):
                i, name, what, command, _ = task
                codes[f"{command} {code}"] += 1
                problem = finding(command, code, err, out(task))
                if problem:
                    last = err.strip().splitlines()[-1:] or [""]
                    found.append(problem)
                    print(f"{problem}: mutation {i} ({name}: {what}) "
                          f"`{command}`: {last[0]}")
    kinds = Counter(found)
    print(f"{args.mutations} mutations, {len(tasks)} runs: "
          f"{kinds['traceback']} tracebacks, {kinds['timeout']} timeouts, "
          f"{sum(n for k, n in kinds.items() if k.startswith('exit'))} "
          f"undocumented exit codes, {kinds['non-finite output']} "
          f"non-finite outputs, {kinds['runtime warning']} runtime "
          "warnings")
    print("exit codes: " + ", ".join(f"{k}: {n}"
                                     for k, n in sorted(codes.items())))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
