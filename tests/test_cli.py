import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from declqg.cli import (DEMOS, _fingerprint, _write_json, load_scenario, main,
                        strategy_to_doc)
from declqg.core import NumericalBreakdown
from declqg.solver import solve

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def k2_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(DEMOS["symmetric-k2"]["config"]))
    return str(path)


def test_validate_reports_ok(k2_config, capsys):
    assert main(["validate", k2_config]) == 0
    out = capsys.readouterr().out
    assert "A1 OK, A2 OK" in out


def test_validate_writes_protocol_document(k2_config, tmp_path, capsys):
    out = tmp_path / "art"
    assert main(["--out", str(out), "validate", k2_config]) == 0
    doc = json.loads((out / "protocol.json").read_text())
    assert doc["kind"] == "symmetric_delay"


def test_solve_then_simulate_round_trip(k2_config, tmp_path, capsys):
    out = tmp_path / "art"
    assert main(["--out", str(out), "solve", k2_config]) == 0
    strategy = out / "strategy.json"
    assert strategy.exists()
    assert main(["--out", str(out), "simulate", k2_config,
                 "--strategy", str(strategy), "--rollouts", "2000",
                 "--samples", "1"]) == 0
    txt = capsys.readouterr().out
    summary = json.loads((out / "simulation.json").read_text())
    assert abs(summary["J"] - summary["exact_cost"]) < 1e-8
    assert abs(summary["mean"] - summary["exact_cost"]) < 4 * summary["stderr"]
    csv_path = out / "rollout_000.csv"
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("t,x_0,x_1,y_0,y_1,u_0,u_1,z_0")
    assert header.endswith("cost_step")


def test_solve_then_simulate_round_trip_one_step(tmp_path, capsys):
    # T = 1: the strategy file holds no filter gains
    doc = json.loads(json.dumps(DEMOS["scalar-2ctrl-k1"]["config"]))
    doc["horizon"] = 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "art"
    assert main(["--out", str(out), "solve", str(config)]) == 0
    assert json.loads((out / "strategy.json").read_text())["filter_gain"] == []
    assert main(["--out", str(out), "simulate", str(config), "--strategy",
                 str(out / "strategy.json"), "--rollouts", "200"]) == 0


def test_validate_reports_non_selection_protocol(tmp_path, capsys):
    doc = json.loads(json.dumps(DEMOS["scalar-2ctrl-k1"]["config"]))
    share = {"mm": [], "my": [], "mu": [], "zm": [], "zy": [[1.0]],
             "zu": [[0.5]]}
    doc["info_structure"] = {"kind": "explicit",
                             "params": {"blocks": [share, share]}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["validate", str(config)]) == 0
    assert "token simulation unavailable" in capsys.readouterr().out


def test_simulate_deterministic(k2_config, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["--out", str(out), "simulate", k2_config,
                     "--rollouts", "3000", "--seed", "42"]) == 0
    s1 = (out1 / "simulation.json").read_bytes()
    s2 = (out2 / "simulation.json").read_bytes()
    assert s1 == s2


def test_bad_R_rejected_with_field(tmp_path, capsys):
    doc = json.loads(json.dumps(DEMOS["symmetric-k2"]["config"]))
    doc["cost"]["R"] = [[1.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 2
    assert "cost.R" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "solve", "simulate"])
def test_overflowing_covariance_rejected_with_field(command, tmp_path, capsys):
    # sigma_x + sigma_x' overflows, and eigvalsh used to fail on the infs
    doc = json.loads(json.dumps(DEMOS["symmetric-k2"]["config"]))
    doc["dims"]["d_x"] = 3
    doc["dynamics"] = {"A": np.diag([0.9, 0.8, 0.7]).tolist(),
                       "B": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}
    doc["observations"]["C"] = [[[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]]
    doc["cost"]["Q"] = np.eye(3).tolist()
    doc["noise"]["sigma_x"] = [[1e308, 1e308, 0.0], [1e308, 1e308, 0.0],
                               [0.0, 0.0, 1.0]]
    doc["noise"]["sigma_w0"] = (0.3 * np.eye(3)).tolist()
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--out", str(tmp_path), command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at noise: sigma_x: "), err


def test_missing_field_rejected(tmp_path, capsys):
    doc = json.loads(json.dumps(DEMOS["symmetric-k2"]["config"]))
    del doc["noise"]["sigma_w0"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 2
    assert "noise.sigma_w0" in capsys.readouterr().err


def test_invalid_json_rejected_with_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"horizon": 3,,}')
    assert main(["validate", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_numerical_breakdown_exit_code(k2_config, monkeypatch, capsys):
    import declqg.cli as cli_mod

    def boom(*a, **kw):
        raise NumericalBreakdown("filter covariance is not PSD", t=3)

    monkeypatch.setattr(cli_mod, "solve", boom)
    assert main(["solve", k2_config]) == 3
    assert "t=3" in capsys.readouterr().err


def _zero_noise(doc):
    doc["noise"] = {"sigma_x": [[0.0]], "sigma_w0": [[0.0]],
                    "sigma_w": [[[0.0]], [[0.0]]]}


# A = 1e200 overflows the filter's covariance root at t = 3; with no noise
# the filter stays at zero and the value matrices overflow instead.  The
# CLI runs with numpy's warnings off: the finiteness checks raise.
@pytest.mark.parametrize("mutate", [lambda doc: None, _zero_noise],
                         ids=["noisy", "noiseless"])
@pytest.mark.parametrize("command", [["solve"], ["tune", "--budget", "20"]],
                         ids=["solve", "tune"])
def test_overflow_is_a_breakdown_naming_its_step(mutate, command, tmp_path,
                                                 capsys):
    doc = json.loads(json.dumps(DEMOS["scalar-2ctrl-k1"]["config"]))
    doc["dynamics"]["A"] = [[1e200]]
    mutate(doc)
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    argv = ["--out", str(tmp_path), command[0], str(path), *command[1:]]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical breakdown: ") and "(t=" in err


def _overflowing_c_breakdown(command, tmp_path, protocol=None) -> str:
    """stderr of the CLI on the scalar demo with C^2 = 1e308, exit 3 (a
    breakdown); ``protocol`` replaces the demo's 1-step sharing.  tune
    breaks down at its first candidate with nonzero G, solve at the given
    gains."""
    doc = json.loads(json.dumps(DEMOS["scalar-2ctrl-k1"]["config"]))
    doc["observations"]["C"][1] = [[1e308]]
    if protocol is not None:
        doc["info_structure"] = protocol
    if command[0] == "solve":
        doc["gains"] = {"G": [[[0.5]], [[0.5]]]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-m", "declqg.cli", "--out",
         str(tmp_path), command[0], str(path), *command[1:]],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 3, proc.stderr
    return proc.stderr


@pytest.mark.parametrize("command", [["solve"], ["tune", "--budget", "20"]],
                         ids=["solve", "tune"])
def test_non_finite_filter_pre_array_is_a_breakdown(command, tmp_path):
    # C = 1e308 overflows the square-root sweep's pre-array [C R, N_v;
    # A R, N_w] at t = 2 under one-sided sharing, a protocol outside the
    # window form's class; the SVD it used to reach never returned on it.
    err = _overflowing_c_breakdown(command, tmp_path, {"kind": "one_sided"})
    assert "numerical breakdown: filter pre-array is not finite (t=2)" in err


@pytest.mark.parametrize("command", [["solve"], ["tune", "--budget", "20"]],
                         ids=["solve", "tune"])
def test_non_finite_innovation_covariance_is_a_breakdown(command, tmp_path):
    # Under the demo's 1-step sharing the window form overflows the
    # innovation covariance C P~ C' + N_v N_v' at t = 1, which is checked
    # before its eigendecomposition (eigh returns NaN on it, silently).
    err = _overflowing_c_breakdown(command, tmp_path)
    assert ("numerical breakdown: innovation covariance is not finite (t=1)"
            in err)


def test_fuzz_inputs_runs_clean_on_a_few_mutations():
    # each of the 4 mutations (one per demo but the last) goes through
    # validate, solve, simulate and tune, and a mutation of the demo's
    # strategy file through simulate --strategy, in a subprocess
    proc = subprocess.run(
        [sys.executable, str(SRC.parent / "tools" / "fuzz_inputs.py"),
         "--mutations", "4", "--timeout", "30"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert ("4 mutations, 20 runs: 0 tracebacks, 0 timeouts, "
            "0 undocumented exit codes, 0 non-finite outputs") in proc.stdout
    assert "simulate --strategy " in proc.stdout


def test_tune_writes_log(k2_config, tmp_path, capsys):
    out = tmp_path / "art"
    assert main(["--out", str(out), "tune", k2_config,
                 "--budget", "40", "--restarts", "0"]) == 0
    lines = (out / "tune_log.csv").read_text().splitlines()
    assert lines[0] == "restart,eval,J_incumbent"
    assert len(lines) == 41
    incumbents = [float(row.split(",")[2]) for row in lines[1:]]
    assert all(b <= a + 1e-15 for a, b in zip(incumbents, incumbents[1:]))


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demos_load(name):
    sc = load_scenario(DEMOS[name]["config"])
    assert sc.plant.T >= 1


def test_demo_command_runs(capsys):
    assert main(["demo", "scalar-2ctrl-k1"]) == 0
    out = capsys.readouterr().out
    assert "J =" in out


def test_unknown_demo(capsys):
    assert main(["demo", "nope"]) == 2


def test_gains_in_config(tmp_path):
    doc = json.loads(json.dumps(DEMOS["scalar-2ctrl-k1"]["config"]))
    doc["gains"] = {"G": [[[0.2]], [[0.1]]], "H": [[[]], [[]]]}
    sc = load_scenario(doc)
    assert sc.gains.G[0][0, 0] == 0.2


def test_explicit_info_structure(tmp_path):
    doc = json.loads(json.dumps(DEMOS["scalar-2ctrl-k1"]["config"]))
    zero_m = {"mm": [[]], "my": [[]], "mu": [[]]}
    doc["info_structure"] = {
        "kind": "explicit",
        "params": {"strict": False, "blocks": [
            {"mm": np.zeros((0, 0)).tolist(), "my": np.zeros((0, 1)).tolist(),
             "mu": np.zeros((0, 1)).tolist(), "zm": np.zeros((1, 0)).tolist(),
             "zy": [[1.0]], "zu": [[0.0]]},
            {"mm": np.zeros((0, 0)).tolist(), "my": np.zeros((0, 1)).tolist(),
             "mu": np.zeros((0, 1)).tolist(), "zm": np.zeros((1, 0)).tolist(),
             "zy": [[1.0]], "zu": [[0.0]]},
        ]}}
    sc = load_scenario(doc)
    assert sc.protocol.d_z == 2


@pytest.fixture(scope="module")
def k2_strategy():
    sc = load_scenario(DEMOS["symmetric-k2"]["config"])
    return json.dumps(strategy_to_doc(solve(sc.plant, sc.protocol, sc.gains)))


def _nan_in_L(doc):
    doc["L"][0][0][0] = float("nan")


def _short_L_row(doc):
    doc["L"][1] = [[1.0]]


def _bad_G_block(doc):
    doc["gains"]["G"][0][0] = [[1.0, 2.0]]


def _no_L(doc):
    del doc["L"]


def _no_fingerprint(doc):
    del doc["fingerprint"]


def _few_filter_gains(doc):
    doc["filter_gain"] = doc["filter_gain"][:-1]


def _inf_in_L(doc):
    doc["L"][2][0][0] = float("inf")


def _wide_filter_gain(doc):
    # one row more than the (X, carrier) state has
    doc["filter_gain"][0].append(doc["filter_gain"][0][0])


def _bool_in_L(doc):
    doc["L"][0][0][0] = True


def _bool_in_G(doc):
    doc["gains"]["G"][1][0] = [[False]]


def _nan_J(doc):
    doc["J"] = float("nan")


def _bool_J(doc):
    doc["J"] = True


@pytest.mark.parametrize("mutate, field", [
    (_nan_in_L, "L[t=1]"),
    (_short_L_row, "L[t=2]"),
    (_bad_G_block, "gains.G"),
    (_no_L, "at L:"),
    (_few_filter_gains, "filter_gain"),
    (_wide_filter_gain, "filter_gain[t=1]"),
    (_inf_in_L, "L[t=3]"),
    (_no_fingerprint, "at fingerprint:"),
    (_bool_in_L, "L[t=1]"),
    (_bool_in_G, "gains.G"),
    (_nan_J, "at J:"),
    (_bool_J, "at J:"),
])
def test_malformed_strategy_rejected_with_field(mutate, field, k2_config,
                                                k2_strategy, tmp_path,
                                                capsys):
    doc = json.loads(k2_strategy)
    mutate(doc)
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(doc))
    assert main(["--out", str(tmp_path), "simulate", k2_config,
                 "--strategy", str(path), "--rollouts", "100"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at ")
    assert field in err


@pytest.mark.parametrize("name, digest", [
    ("symmetric-k2",
     "4532fb44ccaea796f7a3d94ae48798d6f8ba03198c96ec4c9401b15df1ff9643"),
    ("figure1-asymmetric",
     "6adba2d141f40cbe8ad6cef30d1929a02da7134fdb201acd70642f9c69bd02e3"),
])
def test_fingerprint_is_stable(name, digest):
    # strategy files store this digest, so a change would stop saved
    # strategies from loading
    sc = load_scenario(json.loads(json.dumps(DEMOS[name]["config"])))
    assert _fingerprint(sc.plant, sc.protocol) == digest


def test_strategy_file_holds_one_gain_array(k2_strategy):
    doc = json.loads(k2_strategy)
    assert doc["format"] == "declqg-strategy/2" and "K" not in doc
    sc = load_scenario(DEMOS["symmetric-k2"]["config"])
    d_state = sc.plant.d_x + sc.protocol.d_carrier
    assert np.shape(doc["L"]) == (sc.plant.T, sc.plant.d_u_total, d_state)
    assert np.shape(doc["filter_gain"]) == (sc.plant.T - 1, d_state,
                                            sc.protocol.d_z)


def test_v1_strategy_file_asks_for_re_solve(k2_config, k2_strategy, tmp_path,
                                            capsys):
    doc = json.loads(k2_strategy)
    doc["format"] = "declqg-strategy/1"
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(doc))
    assert main(["--out", str(tmp_path), "simulate", k2_config,
                 "--strategy", str(path), "--rollouts", "100"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at format: declqg-strategy/1")
    assert "re-solve" in err


def test_solve_prints_one_state_dimension_and_L_norms(k2_config, tmp_path,
                                                      capsys):
    assert main(["--out", str(tmp_path), "solve", k2_config]) == 0
    out = capsys.readouterr().out
    assert "state dim (X, carrier) = 6, d_z = 4" in out
    assert "||L~_t||_F" in out and "K~" not in out


def test_strategy_for_another_plant_rejected(tmp_path, capsys):
    doc = json.loads(json.dumps(DEMOS["symmetric-k2"]["config"]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["--out", str(tmp_path), "solve", str(config)]) == 0
    doc["dynamics"]["A"] = (0.5 * np.asarray(doc["dynamics"]["A"])).tolist()
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["--out", str(tmp_path), "simulate", str(scaled),
                 "--strategy", str(tmp_path / "strategy.json"),
                 "--rollouts", "100"]) == 2
    assert "config error at fingerprint:" in capsys.readouterr().err


def _params_k_text(doc):
    doc["info_structure"]["params"]["k"] = "x"


def _sim_seed_text(doc):
    doc["sim"]["seed"] = "abc"


def _d_u_text(doc):
    doc["dims"]["d_u"] = ["a", "b"]


def _params_list(doc):
    doc["info_structure"]["params"] = [1]


def _gains_list(doc):
    doc["gains"] = [1]


def _A_text(doc):
    doc["dynamics"]["A"] = "x"


def _sigma_w0_text(doc):
    doc["noise"]["sigma_w0"] = "ab"


def _sigma_w_text_entry(doc):
    doc["noise"]["sigma_w"][0] = [["a"]]


def _C_scalar(doc):
    doc["observations"]["C"] = 5


def _A_nested_text(doc):
    doc["dynamics"]["A"] = [["x", 1], [0, 1]]


def _C_nested_text(doc):
    doc["observations"]["C"][0] = [["x", 0.0]]


def _sigma_w_scalar(doc):
    doc["noise"]["sigma_w"] = 5


def _Q_not_psd(doc):
    doc["cost"]["Q"] = [[1.0, 2.0], [2.0, 1.0]]


def _Q_text(doc):
    doc["cost"]["Q"] = [["x", 0.0], [0.0, 1.0]]


def _R_text(doc):
    doc["cost"]["R"] = "x"


def _delays_text(doc):
    doc["info_structure"] = {"kind": "asymmetric_delay",
                             "params": {"delays": [["a", "b"], ["c", "d"]]}}


def _delays_ragged(doc):
    doc["info_structure"] = {"kind": "asymmetric_delay",
                             "params": {"delays": [[1, 1], [1]]}}


def _blocks_scalar(doc):
    doc["info_structure"] = {"kind": "explicit", "params": {"blocks": 5}}


def _blocks_missing(doc):
    doc["info_structure"] = {"kind": "explicit", "params": {}}


def _blocks_object(doc):
    share = {"mm": [], "my": [], "mu": [], "zm": [], "zy": [[1.0]],
             "zu": [[0.0]]}
    doc["info_structure"] = {"kind": "explicit",
                             "params": {"blocks": {"a": share, "b": share}}}


def _blocks_too_many(doc):
    share = {"mm": [], "my": [], "mu": [], "zm": [], "zy": [[1.0]],
             "zu": [[0.0]]}
    doc["info_structure"] = {"kind": "explicit",
                             "params": {"blocks": [share] * 3}}


def _rollouts_fraction(doc):
    doc["sim"]["rollouts"] = 2.9


def _budget_bool(doc):
    doc["tune"]["budget"] = True


def _params_k_fraction(doc):
    doc["info_structure"]["params"]["k"] = 2.5


def _horizon_bool(doc):
    doc["horizon"] = True


def _A_entry_bool(doc):
    doc["dynamics"]["A"][0][1] = True


def _sigma_x_entry_bool(doc):
    doc["noise"]["sigma_x"][1][1] = True


def _gains_entry_bool(doc):
    doc["gains"] = {"G": [[[True]], [[0.5]]]}


def _blocks_entry_bool(doc):
    share = {"mm": [], "my": [], "mu": [], "zm": [], "zy": [[True]],
             "zu": [[0.0]]}
    doc["info_structure"] = {"kind": "explicit",
                             "params": {"blocks": [share, share]}}


def _budget_zero(doc):
    doc["tune"]["budget"] = 0


def _restarts_negative(doc):
    doc["tune"]["restarts"] = -3


def _tune_seed_negative(doc):
    doc["tune"]["seed"] = -1


def _rollouts_zero(doc):
    doc["sim"]["rollouts"] = 0


def _sim_seed_negative(doc):
    doc["sim"]["seed"] = -1


@pytest.mark.parametrize("mutate, field", [
    (_budget_zero, "tune.budget"),
    (_restarts_negative, "tune.restarts"),
    (_tune_seed_negative, "tune.seed"),
    (_rollouts_zero, "sim.rollouts"),
    (_sim_seed_negative, "sim.seed"),
    (_params_k_text, "info_structure.params.k"),
    (_sim_seed_text, "sim.seed"),
    (_d_u_text, "dims.d_u"),
    (_params_list, "info_structure.params"),
    (_gains_list, "gains"),
    (_A_text, "dynamics.A"),
    (_sigma_w0_text, "noise"),
    (_sigma_w_text_entry, "noise"),
    (_C_scalar, "observations.C"),
    (_A_nested_text, "dynamics.A"),
    (_C_nested_text, "observations.C"),
    (_sigma_w_scalar, "noise"),
    (_Q_not_psd, "cost.Q"),
    (_Q_text, "cost.Q"),
    (_R_text, "cost.R"),
    (_delays_text, "info_structure"),
    (_delays_ragged, "info_structure"),
    (_blocks_scalar, "info_structure"),
    (_blocks_missing, "info_structure"),
    (_blocks_object, "info_structure"),
    (_blocks_too_many, "info_structure"),
    (_rollouts_fraction, "sim.rollouts"),
    (_budget_bool, "tune.budget"),
    (_params_k_fraction, "info_structure.params.k"),
    (_horizon_bool, "horizon"),
    (_A_entry_bool, "dynamics.A"),
    (_sigma_x_entry_bool, "noise"),
    (_gains_entry_bool, "gains"),
    (_blocks_entry_bool, "info_structure"),
])
def test_malformed_config_value_rejected_with_field(mutate, field, tmp_path,
                                                    capsys):
    doc = json.loads(json.dumps(DEMOS["symmetric-k2"]["config"]))
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--rollouts", "100"]) == 2
    assert f"config error at {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("use_strategy", [False, True])
def test_simulate_builds_coordinated_system_once(use_strategy, k2_config,
                                                 tmp_path, monkeypatch,
                                                 capsys):
    import declqg.coordination as coordination
    argv = ["--out", str(tmp_path), "simulate", k2_config,
            "--rollouts", "100"]
    if use_strategy:
        assert main(["--out", str(tmp_path), "solve", k2_config]) == 0
        argv += ["--strategy", str(tmp_path / "strategy.json")]
    build, calls = coordination.build, []

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("declqg")
                and getattr(mod, "build", None) is build):
            monkeypatch.setattr(mod, "build", counted)
    assert main(argv) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv, flag", [
    (["tune", "--budget", "0"], "--budget"),
    (["tune", "--restarts", "-1"], "--restarts"),
    (["tune", "--seed", "-2"], "--seed"),
    (["simulate", "--rollouts", "0"], "--rollouts"),
    (["simulate", "--seed", "-1"], "--seed"),
    (["simulate", "--samples", "-1"], "--samples"),
])
def test_out_of_range_count_or_seed_flag_rejected(argv, flag, k2_config,
                                                  tmp_path, capsys):
    argv = ["--out", str(tmp_path), argv[0], k2_config, *argv[1:]]
    assert main(argv) == 2
    assert f"config error at {flag}: must be >= " in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
@pytest.mark.parametrize("command", ["solve", "tune", "demo"])
def test_non_positive_tolerance_rejected(command, value, k2_config, tmp_path,
                                         capsys):
    args = {"solve": [k2_config], "tune": [k2_config, "--budget", "3"],
            "demo": ["scalar-2ctrl-k1"]}[command]
    argv = ["--out", str(tmp_path), "--tolerance", value, command, *args]
    assert main(argv) == 2
    assert "config error at --tolerance: must be > 0" in \
        capsys.readouterr().err


@pytest.mark.parametrize("value", ["1", "2", "inf"])
@pytest.mark.parametrize("command", ["solve", "tune", "demo"])
def test_tolerance_of_one_or_more_rejected(command, value, k2_config,
                                           tmp_path, capsys):
    # such a cutoff keeps no innovation: --tolerance 2 solved symmetric-k2
    # to J = 15.13 (12.56 at the default) and exited 0
    args = {"solve": [k2_config], "tune": [k2_config, "--budget", "3"],
            "demo": ["scalar-2ctrl-k1"]}[command]
    argv = ["--out", str(tmp_path), "--tolerance", value, command, *args]
    assert main(argv) == 2
    assert "config error at --tolerance: must be > 0 and < 1" in \
        capsys.readouterr().err


def test_zero_is_a_valid_seed_restart_count_and_sample_count(k2_config,
                                                             tmp_path):
    out = str(tmp_path)
    assert main(["--out", out, "tune", k2_config, "--budget", "3",
                 "--restarts", "0", "--seed", "0"]) == 0
    assert main(["--out", out, "simulate", k2_config, "--rollouts", "1",
                 "--seed", "0", "--samples", "0"]) == 0


def _overflowing_strategy(tmp_path):
    """(config, strategy) paths: the control-sharing demo and its solved
    strategy with G^1_5 = 1e308."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(DEMOS["control-sharing"]["config"]))
    assert main(["--out", str(tmp_path), "solve", str(config)]) == 0
    doc = json.loads((tmp_path / "strategy.json").read_text())
    doc["gains"]["G"][4][0][0][0] = 1e308
    strategy = tmp_path / "huge_gain.json"
    strategy.write_text(json.dumps(doc))
    return config, strategy


def test_simulate_of_an_overflowing_strategy_is_a_breakdown(tmp_path,
                                                           capsys):
    # G^1_5 = 1e308 overflows U_5 in the rollouts and in the moments: a
    # breakdown at t = 5, and no simulation.json with NaN in it
    config, strategy = _overflowing_strategy(tmp_path)
    capsys.readouterr()
    out = tmp_path / "sim"
    assert main(["--out", str(out), "simulate", str(config), "--strategy",
                 str(strategy), "--rollouts", "100"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical breakdown: rollout ")
    assert "is not finite (t=5)" in err
    assert not (out / "simulation.json").exists()


def test_a_breakdown_prints_no_numpy_warning(tmp_path):
    # build and the rollouts overflow on the way to the breakdown; the
    # CLI prints only the typed error
    config, strategy = _overflowing_strategy(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONWARNINGS="default")
    proc = subprocess.run(
        [sys.executable, "-m", "declqg.cli", "--out", str(tmp_path / "sim"),
         "simulate", str(config), "--strategy", str(strategy),
         "--rollouts", "100"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 3
    assert proc.stderr == ("numerical breakdown: rollout 0 is not finite "
                           "(t=5)\n")


def test_one_rollout_writes_a_null_stderr(k2_config, tmp_path):
    # the standard error of one cost is undefined, and strict JSON has no
    # infinity to write for it
    assert main(["--out", str(tmp_path), "simulate", k2_config,
                 "--rollouts", "1"]) == 0
    summary = json.loads((tmp_path / "simulation.json").read_text())
    assert summary["stderr"] is None and summary["rollouts"] == 1


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_json_output_refuses_non_finite_numbers(value, tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(NumericalBreakdown, match="non-finite"):
        _write_json(str(path), {"J": [1.0, value]})
    assert not path.exists()
