"""Batch front end: validate / solve / simulate / tune / demo.

Scenarios are JSON documents (see README for the schema); constant matrices
broadcast over t.  Exit codes: 0 success, 1 validation violations, 2 bad
config or strategy file (with field diagnostics), 3 numerical breakdown (with
step index).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_RTOL, NumericalBreakdown, UnsupportedProtocol,
                   as_matrix, read_only)
from .coordination import LocalGains, build
from .infostructure import (DelayGraph, MemoryProtocol,
                            build_asymmetric_delay, build_control_sharing,
                            build_one_sided, build_symmetric_delay,
                            explicit_protocol, token_trace, validate)
from .plant import PlantModel
from .sim import exact_cost, simulate
from .solver import SolvedStrategy, _check_one_strategy, solve
from .tune import tune


class ConfigError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def _get(doc, path, required=True, default=None):
    node = doc
    walked = []
    for part in path.split("."):
        walked.append(part)
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(".".join(walked), "missing required field")
            return default
        node = node[part]
    return node


def _as_int(value, field: str) -> int:
    """Integer config value; bools and non-integral floats are rejected."""
    if not isinstance(value, bool) and (not isinstance(value, float)
                                        or value.is_integer()):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(field, f"must be an integer, got {value!r}")


def _get_int(doc, path: str, default: int, lo: int) -> int:
    """Optional integer field ``path`` (``default`` when absent), >= ``lo``."""
    return _at_least(_as_int(_get(doc, path, False, default), path), lo, path)


def _at_least(value, lo: int, field: str, default: int = 0) -> int:
    """A count or seed of at least ``lo``; ``default`` for an absent flag."""
    if value is not None and value < lo:
        raise ConfigError(field, f"must be >= {lo}, got {value}")
    return default if value is None else value


@dataclass
class Scenario:
    plant: PlantModel
    protocol: MemoryProtocol
    gains: LocalGains
    sim_seed: int
    sim_rollouts: int
    tune_budget: int
    tune_restarts: int
    tune_seed: int


def _load_gains(doc, plant, mp) -> LocalGains:
    g_doc = _get(doc, "gains", required=False)
    if not g_doc:
        return LocalGains.zeros(plant, mp)
    if not isinstance(g_doc, dict):
        raise ConfigError("gains", "must be an object")
    per_step = bool(g_doc.get("per_step", False))
    try:
        G = g_doc.get("G")
        H = g_doc.get("H")
        if G is None:
            G = [np.zeros((plant.d_u[i], plant.d_y[i]))
                 for i in range(plant.n)]
        if H is None:
            H = [np.zeros((plant.d_u[i], mp.d_m[i])) for i in range(plant.n)]
        if not per_step:
            G = [G] * plant.T
            H = [H] * plant.T
        return LocalGains.create(plant, mp, G, H)
    except (ValueError, TypeError) as e:
        raise ConfigError("gains", str(e))


def load_scenario(doc: dict) -> Scenario:
    """Parse and semantically validate a config document."""
    T = _as_int(_get(doc, "horizon"), "horizon")
    if T < 1:
        raise ConfigError("horizon", "must be a positive integer")
    d_x = _as_int(_get(doc, "dims.d_x"), "dims.d_x")
    d_u = _get(doc, "dims.d_u")
    d_y = _get(doc, "dims.d_y")
    if not isinstance(d_u, list) or not isinstance(d_y, list):
        raise ConfigError("dims", "d_u and d_y must be per-controller lists")
    d_u = [_as_int(d, "dims.d_u") for d in d_u]
    d_y = [_as_int(d, "dims.d_y") for d in d_y]
    n = len(d_u)
    if len(d_y) != n:
        raise ConfigError("dims.d_y", f"expected {n} entries to match d_u")

    try:
        plant = PlantModel.create(
            n=n, T=T, d_x=d_x, d_u=d_u, d_y=d_y,
            A=_get(doc, "dynamics.A"), B=_get(doc, "dynamics.B"),
            C=_get(doc, "observations.C"), Q=_get(doc, "cost.Q"),
            R=_get(doc, "cost.R"),
            sigma_x=_get(doc, "noise.sigma_x"),
            sigma_w0=_get(doc, "noise.sigma_w0"),
            sigma_w=_get(doc, "noise.sigma_w"))
    except (ValueError, TypeError) as e:
        msg = str(e)
        field = "plant"
        for prefix, name in (("d_x", "dims.d_x"),
                             ("A", "dynamics.A"), ("B", "dynamics.B"),
                             ("C", "observations.C"), ("Q", "cost.Q"),
                             ("R", "cost.R"), ("sigma", "noise")):
            if msg.startswith(prefix):
                field = name
                break
        raise ConfigError(field, msg)

    kind = _get(doc, "info_structure.kind")
    params = _get(doc, "info_structure.params", required=False, default={})
    if not isinstance(params, dict):
        raise ConfigError("info_structure.params", "must be an object")
    try:
        if kind == "symmetric_delay":
            mp = build_symmetric_delay(
                plant, _as_int(params.get("k", 1), "info_structure.params.k"))
        elif kind == "asymmetric_delay":
            delays = params.get("delays")
            if delays is None:
                raise ConfigError("info_structure.params.delays",
                                  "missing delay matrix")
            mp = build_asymmetric_delay(plant, DelayGraph.create(delays))
        elif kind == "control_sharing":
            mp = build_control_sharing(plant)
        elif kind == "one_sided":
            mp = build_one_sided(plant)
        elif kind == "explicit":
            mp = explicit_protocol(plant, params.get("blocks", []),
                                   strict=bool(params.get("strict", False)))
        else:
            raise ConfigError("info_structure.kind",
                              f"unknown kind {kind!r}")
    except (ValueError, TypeError) as e:
        raise ConfigError("info_structure", str(e))

    gains = _load_gains(doc, plant, mp)
    return Scenario(
        plant=plant, protocol=mp, gains=gains,
        sim_seed=_get_int(doc, "sim.seed", 0, 0),
        sim_rollouts=_get_int(doc, "sim.rollouts", 10000, 1),
        tune_budget=_get_int(doc, "tune.budget", 1000, 1),
        tune_restarts=_get_int(doc, "tune.restarts", 1, 0),
        tune_seed=_get_int(doc, "tune.seed", 0, 0))


def _read_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(path, "config file not found")
    except json.JSONDecodeError as e:
        raise ConfigError(path, f"invalid JSON at line {e.lineno} "
                                f"column {e.colno}: {e.msg}")


# --------------------------------------------------------------------------
# strategy files


STRATEGY_FORMAT = "declqg-strategy/2"


def _fingerprint(plant: PlantModel, mp: MemoryProtocol) -> str:
    """sha256 over the plant's dimensions and matrices and the protocol's
    stacked maps, in a fixed order.  C and sigma_w are hashed block by
    block, controller-major, so the digest matches the per-controller
    storage older strategy files were written with."""
    h = hashlib.sha256(json.dumps(
        [plant.n, plant.T, plant.d_x, plant.d_u, plant.d_y]).encode())
    ys = [plant.y_slice(i) for i in range(plant.n)]
    mats = (*plant.A, *plant.B, *(c[y] for y in ys for c in plant.C),
            plant.Q, plant.R, plant.sigma_x, plant.sigma_w0,
            *(plant.sigma_w[y, y] for y in ys),
            mp.cc, mp.cy, mp.cu, mp.zc, mp.zy, mp.zu, mp.m_sel, mp.l_from_m)
    for m in mats:
        m = np.ascontiguousarray(m, dtype=float)
        h.update(repr(m.shape).encode())
        h.update(m.tobytes())
    return h.hexdigest()


def strategy_to_doc(ss: SolvedStrategy, dump_matrices=False) -> dict:
    gains, p, mp = ss.gains, ss.cs.plant, ss.cs.protocol
    _check_one_strategy(ss.cs)
    doc = {
        "format": STRATEGY_FORMAT,
        "fingerprint": _fingerprint(p, mp),
        "J": ss.J,
        "L": ss.Lgain.tolist(),
        "filter_gain": ss.filter_gain.tolist(),
        "gains": {
            "per_step": True,
            "G": [[G_t[p.u_slice(i), p.y_slice(i)].tolist()
                   for i in range(p.n)] for G_t in gains.G],
            "H": [[H_t[p.u_slice(i), mp.m_slice(i)].tolist()
                   for i in range(p.n)] for H_t in gains.H],
        },
    }
    if dump_matrices and ss.Ptilde is not None:
        doc["Ptilde"] = ss.Ptilde.tolist()
        doc["S"] = ss.S.tolist()
    return doc


def _matrix_sequence(doc, key, count, rows, cols) -> np.ndarray:
    """The list ``doc[key]`` of ``count`` finite rows x cols matrices, as
    one read-only (count, rows, cols) array."""
    seq = _get(doc, key)
    if not isinstance(seq, list) or len(seq) != count:
        raise ConfigError(key, f"expected a list of {count} matrices")
    out = np.empty((count, rows, cols))
    for t, m in enumerate(seq, 1):
        field = f"{key}[t={t}]"
        try:
            out[t - 1] = as_matrix(m, rows, cols, field)
        except (ValueError, TypeError) as e:
            raise ConfigError(field, str(e).removeprefix(f"{field}: "))
    return read_only(out)


def strategy_from_doc(doc: dict, plant: PlantModel, mp: MemoryProtocol
                      ) -> SolvedStrategy:
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt == "declqg-strategy/1":
        raise ConfigError("format", "declqg-strategy/1 holds gains on the "
                                    "retired (X, Y, carrier) state; re-solve")
    if fmt != STRATEGY_FORMAT:
        raise ConfigError("format", "not a declqg strategy file")
    if doc.get("fingerprint") != _fingerprint(plant, mp):
        raise ConfigError("fingerprint", "missing, or the strategy was solved "
                                         "for another plant or protocol")
    try:
        gains = LocalGains.create(plant, mp, _get(doc, "gains.G"),
                                  _get(doc, "gains.H"))
    except (ValueError, TypeError) as e:
        msg = str(e)
        raise ConfigError("gains." + msg[0] if msg[:1] in ("G", "H")
                          else "gains", msg)
    cs = build(plant, mp, gains)
    L = _matrix_sequence(doc, "L", plant.T, cs.d_u, cs.d_state)
    F = _matrix_sequence(doc, "filter_gain", plant.T - 1, cs.d_state, cs.d_z)
    J = _get(doc, "J")
    try:
        finite = not isinstance(J, bool) and math.isfinite(J)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise ConfigError("J", "must be a finite number")
    return SolvedStrategy(cs=cs, Lgain=L, filter_gain=F, J=float(J))


# --------------------------------------------------------------------------
# output helpers


def _outdir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path: str, doc: dict):
    """Write ``doc`` as strict JSON; a NaN or infinity in it is a
    breakdown, and nothing is written."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        raise NumericalBreakdown(f"{os.path.basename(path)} would hold a "
                                 "non-finite number") from None
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _write_rollout_csv(path: str, rollout):
    d_x = rollout.x.shape[1]
    d_y = rollout.y.shape[1]
    d_u = rollout.u.shape[1]
    d_z = rollout.z.shape[1]
    header = (["t"] + [f"x_{j}" for j in range(d_x)]
              + [f"y_{j}" for j in range(d_y)]
              + [f"u_{j}" for j in range(d_u)]
              + [f"z_{j}" for j in range(d_z)] + ["cost_step"])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for t in range(rollout.x.shape[0]):
            row = ([t + 1] + list(rollout.x[t]) + list(rollout.y[t])
                   + list(rollout.u[t]) + list(rollout.z[t])
                   + [rollout.step_costs[t]])
            w.writerow(row)


# --------------------------------------------------------------------------
# commands


def cmd_validate(args) -> int:
    sc = load_scenario(_read_config(args.config))
    mp = sc.protocol
    report = validate(mp)
    print(f"protocol: {mp.kind} (strict={mp.strict}), n={mp.n}, T={mp.T}")
    print(f"d_m={list(mp.d_m)} d_carrier={mp.d_carrier} d_z={mp.d_z}")
    print(report.summary())
    try:
        trace = token_trace(mp)
        t = mp.T
        shared = [tok for tok in trace.z[t] if tok is not None]
        print(f"token simulation: Z_{t} carries {len(shared)} live entries "
              f"of {len(trace.z[t])} slots")
        for i in range(mp.n):
            toks = [tok for tok in trace.memory_tokens(i, t) if tok is not None]
            oldest = min((tok[2] for tok in toks), default=None)
            print(f"  M^{i + 1}_{t}: {len(toks)} live entries"
                  + (f", oldest from t={oldest}" if oldest else ""))
    except UnsupportedProtocol as e:
        print(f"token simulation unavailable: {e}")
    if args.out:
        _write_json(os.path.join(_outdir(args), "protocol.json"),
                    mp.to_document())
    return 0 if report.ok else 1


def cmd_solve(args) -> int:
    sc = load_scenario(_read_config(args.config))
    ss = solve(sc.plant, sc.protocol, sc.gains, rtol=args.tolerance)
    print(f"predicted cost J = {ss.J:.10g}")
    print(f"state dim (X, carrier) = {ss.cs.d_state}, d_z = {ss.cs.d_z}")
    print(" t   ||L~_t||_F     tr P~_t      tr S_t")
    for t in range(1, sc.plant.T + 1):
        print(f"{t:2d}   {np.linalg.norm(ss.Lgain[t - 1]):10.4f}"
              f"   {np.trace(ss.Ptilde[t - 1]):10.4f}"
              f"   {np.trace(ss.S[t - 1]):10.4f}")
    if args.dump_matrices:
        for t in range(1, sc.plant.T + 1):
            print(f"L~_{t} =\n{ss.Lgain[t - 1]}")
    out = _outdir(args)
    _write_json(os.path.join(out, "strategy.json"),
                strategy_to_doc(ss, dump_matrices=args.dump_matrices))
    return 0


def cmd_simulate(args) -> int:
    sc = load_scenario(_read_config(args.config))
    seed = _at_least(args.seed, 0, "--seed", sc.sim_seed)
    rollouts = _at_least(args.rollouts, 1, "--rollouts", sc.sim_rollouts)
    _at_least(args.samples, 0, "--samples")
    if args.strategy:
        ss = strategy_from_doc(_read_config(args.strategy), sc.plant,
                               sc.protocol)
        gains = ss.gains
        solved_here = False
    else:
        gains = sc.gains
        ss = solve(sc.plant, sc.protocol, gains, rtol=args.tolerance)
        solved_here = True
    mc = simulate(sc.plant, sc.protocol, gains, ss, seed=seed,
                  count=rollouts, sample_count=args.samples)
    exact = exact_cost(sc.plant, sc.protocol, gains, ss)
    print(f"rollouts        : {rollouts} (seed {seed})")
    print(f"monte carlo cost: {mc.mean:.10g} (stderr {mc.stderr:.4g})")
    print(f"exact cost      : {exact:.10g}")
    print(f"reported J      : {ss.J:.10g}"
          + ("" if solved_here else " (from strategy file)"))
    print(f"|MC - exact|    : {abs(mc.mean - exact):.4g} "
          f"({abs(mc.mean - exact) / max(mc.stderr, 1e-300):.2f} stderr)")
    print(f"|J - exact|     : {abs(ss.J - exact):.4g}")
    out = _outdir(args)
    _write_json(os.path.join(out, "simulation.json"), {
        "seed": seed, "rollouts": rollouts, "mean": mc.mean,
        "stderr": mc.stderr if rollouts > 1 else None,
        "exact_cost": exact, "J": ss.J,
    })
    for idx, ro in enumerate(mc.samples):
        _write_rollout_csv(os.path.join(out, f"rollout_{idx:03d}.csv"), ro)
    return 0


def cmd_tune(args) -> int:
    sc = load_scenario(_read_config(args.config))
    budget = _at_least(args.budget, 1, "--budget", sc.tune_budget)
    restarts = _at_least(args.restarts, 0, "--restarts", sc.tune_restarts)
    seed = _at_least(args.seed, 0, "--seed", sc.tune_seed)
    result = tune(sc.plant, sc.protocol, budget=budget, seed=seed,
                  restarts=restarts, rtol=args.tolerance)
    print(f"incumbent J = {result.J:.10g} after {result.evaluations} "
          f"evaluations ({restarts} restarts, seed {seed})")
    out = _outdir(args)
    log_path = os.path.join(out, "tune_log.csv")
    with open(log_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["restart", "eval", "J_incumbent"])
        w.writerows(result.log)
    print(f"wrote {log_path}")
    _write_json(os.path.join(out, "strategy.json"),
                strategy_to_doc(result.strategy))
    return 0


DEMOS = {}


def _demo(name, description, config):
    DEMOS[name] = {"description": description, "config": config}


_demo("scalar-2ctrl-k1",
      "two scalar controllers, one-step delayed sharing",
      {
          "horizon": 6,
          "dims": {"d_x": 1, "d_u": [1, 1], "d_y": [1, 1]},
          "dynamics": {"A": [[0.9]], "B": [[1.0, 0.5]]},
          "observations": {"C": [[[1.0]], [[0.7]]]},
          "cost": {"Q": [[1.0]], "R": [[1.0, 0.0], [0.0, 1.0]]},
          "noise": {"sigma_x": [[1.0]], "sigma_w0": [[0.4]],
                    "sigma_w": [[[0.2]], [[0.3]]]},
          "info_structure": {"kind": "symmetric_delay", "params": {"k": 1}},
          "sim": {"seed": 7, "rollouts": 20000},
          "tune": {"budget": 600, "restarts": 1, "seed": 0},
      })

_demo("symmetric-k2",
      "two controllers, planar plant, two-step delayed sharing",
      {
          "horizon": 6,
          "dims": {"d_x": 2, "d_u": [1, 1], "d_y": [1, 1]},
          "dynamics": {"A": [[0.95, 0.1], [-0.05, 0.85]],
                       "B": [[1.0, 0.0], [0.2, 0.8]]},
          "observations": {"C": [[[1.0, 0.0]], [[0.0, 1.0]]]},
          "cost": {"Q": [[1.0, 0.0], [0.0, 1.0]],
                   "R": [[1.0, 0.0], [0.0, 1.0]]},
          "noise": {"sigma_x": [[1.0, 0.0], [0.0, 1.0]],
                    "sigma_w0": [[0.3, 0.0], [0.0, 0.3]],
                    "sigma_w": [[[0.1]], [[0.1]]]},
          "info_structure": {"kind": "symmetric_delay", "params": {"k": 2}},
          "sim": {"seed": 11, "rollouts": 20000},
          "tune": {"budget": 800, "restarts": 1, "seed": 0},
      })

_demo("figure1-asymmetric",
      "three controllers on a line: 1 and 3 reach each other through 2",
      {
          "horizon": 6,
          "dims": {"d_x": 2, "d_u": [1, 1, 1], "d_y": [1, 1, 1]},
          "dynamics": {"A": [[0.9, 0.1], [0.0, 0.9]],
                       "B": [[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]]},
          "observations": {"C": [[[1.0, 0.0]], [[0.5, 0.5]], [[0.0, 1.0]]]},
          "cost": {"Q": [[1.0, 0.0], [0.0, 1.0]],
                   "R": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
          "noise": {"sigma_x": [[1.0, 0.0], [0.0, 1.0]],
                    "sigma_w0": [[0.2, 0.0], [0.0, 0.2]],
                    "sigma_w": [[[0.1]], [[0.1]], [[0.1]]]},
          "info_structure": {"kind": "asymmetric_delay",
                             "params": {"delays": [[1, 1, 2], [1, 1, 1],
                                                   [2, 1, 1]]}},
          "sim": {"seed": 3, "rollouts": 20000},
          "tune": {"budget": 800, "restarts": 1, "seed": 0},
      })

_demo("control-sharing",
      "coupled subsystems observing their own state, sharing actions",
      {
          "horizon": 6,
          "dims": {"d_x": 2, "d_u": [1, 1], "d_y": [1, 1]},
          "dynamics": {"A": [[0.9, 0.0], [0.0, 0.8]],
                       "B": [[1.0, 0.4], [0.3, 1.0]]},
          "observations": {"C": [[[1.0, 0.0]], [[0.0, 1.0]]]},
          "cost": {"Q": [[1.0, 0.4], [0.4, 1.0]],
                   "R": [[1.0, 0.0], [0.0, 1.0]]},
          "noise": {"sigma_x": [[1.0, 0.0], [0.0, 1.0]],
                    "sigma_w0": [[0.3, 0.0], [0.0, 0.3]],
                    "sigma_w": [[[0.0]], [[0.0]]]},
          "info_structure": {"kind": "control_sharing"},
          "sim": {"seed": 5, "rollouts": 20000},
          "tune": {"budget": 600, "restarts": 1, "seed": 0},
      })

_demo("one-sided",
      "two subsystems; only subsystem 2's state and actions are shared",
      {
          "horizon": 6,
          "dims": {"d_x": 2, "d_u": [1, 1], "d_y": [1, 1]},
          "dynamics": {"A": [[0.9, 0.3], [0.0, 0.8]],
                       "B": [[1.0, 0.0], [0.4, 1.0]]},
          "observations": {"C": [[[1.0, 0.0]], [[0.0, 1.0]]]},
          "cost": {"Q": [[1.0, 0.0], [0.0, 1.0]],
                   "R": [[1.0, 0.0], [0.0, 1.0]]},
          "noise": {"sigma_x": [[1.0, 0.0], [0.0, 1.0]],
                    "sigma_w0": [[0.3, 0.0], [0.0, 0.3]],
                    "sigma_w": [[[0.0]], [[0.0]]]},
          "info_structure": {"kind": "one_sided"},
          "sim": {"seed": 9, "rollouts": 20000},
          "tune": {"budget": 600, "restarts": 1, "seed": 0},
      })


def cmd_demo(args) -> int:
    if args.name not in DEMOS:
        print(f"unknown demo {args.name!r}; available: "
              + ", ".join(sorted(DEMOS)), file=sys.stderr)
        return 2
    demo = DEMOS[args.name]
    print(f"demo {args.name}: {demo['description']}")
    doc = demo["config"]
    sc = load_scenario(doc)
    report = validate(sc.protocol)
    print(f"protocol {sc.protocol.kind}: "
          + ("valid" if report.ok else f"{len(report.violations)} violations"))
    ss = solve(sc.plant, sc.protocol, sc.gains, rtol=args.tolerance)
    exact = exact_cost(sc.plant, sc.protocol, sc.gains, ss)
    rollouts = min(sc.sim_rollouts, 20000)
    mc = simulate(sc.plant, sc.protocol, sc.gains, ss,
                  seed=sc.sim_seed, count=rollouts)
    print(f"J = {ss.J:.6f}   exact = {exact:.6f}   "
          f"MC({rollouts}) = {mc.mean:.6f} +- {mc.stderr:.6f}")
    if args.out:
        out = _outdir(args)
        _write_json(os.path.join(out, "config.json"), doc)
        _write_json(os.path.join(out, "strategy.json"), strategy_to_doc(ss))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="declqg",
        description="decentralized LQG synthesis with partial history sharing")
    parser.add_argument("--out", help="output directory", default=None)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_RTOL,
                        help="filter's relative rank cutoff")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a protocol (A1/A2, tokens)")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate)

    p_solve = sub.add_parser("solve", help="solve for the best response gains")
    p_solve.add_argument("config")
    p_solve.add_argument("--dump-matrices", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="Monte Carlo + exact-cost checks")
    p_sim.add_argument("config")
    p_sim.add_argument("--strategy", help="strategy JSON from `solve`")
    p_sim.add_argument("--rollouts", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--samples", type=int, default=0,
                       help="trajectories to export as CSV")
    p_sim.set_defaults(func=cmd_simulate)

    p_tune = sub.add_parser("tune", help="pattern search over local gains")
    p_tune.add_argument("config")
    p_tune.add_argument("--budget", type=int, default=None)
    p_tune.add_argument("--restarts", type=int, default=None)
    p_tune.add_argument("--seed", type=int, default=None)
    p_tune.set_defaults(func=cmd_tune)

    p_demo = sub.add_parser("demo", help="run a named built-in scenario")
    p_demo.add_argument("name")
    p_demo.set_defaults(func=cmd_demo)

    args = parser.parse_args(argv)
    try:
        if not 0 < args.tolerance < 1:      # also rejects nan
            raise ConfigError("--tolerance",
                              f"must be > 0 and < 1, got {args.tolerance}")
        return args.func(args)
    except ConfigError as e:
        print(f"config error at {e.field}: {e.message}", file=sys.stderr)
        return 2
    except NumericalBreakdown as e:
        print(f"numerical breakdown: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
