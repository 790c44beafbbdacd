import json
import sys

import numpy as np
import pytest

from declqg.cli import (DEMOS, _fingerprint, load_scenario, main,
                        strategy_to_doc)
from declqg.core import NumericalBreakdown
from declqg.solver import solve


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
# the filter stays at zero and the value matrices overflow instead.  numpy
# warns of the overflow before the sweep's finiteness check raises.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
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


@pytest.mark.parametrize("mutate, field", [
    (_nan_in_L, "L[t=1]"),
    (_short_L_row, "L[t=2]"),
    (_bad_G_block, "gains.G"),
    (_no_L, "at L:"),
    (_few_filter_gains, "filter_gain"),
    (_wide_filter_gain, "filter_gain[t=1]"),
    (_inf_in_L, "L[t=3]"),
    (_no_fingerprint, "at fingerprint:"),
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


def test_zero_is_a_valid_seed_restart_count_and_sample_count(k2_config,
                                                             tmp_path):
    out = str(tmp_path)
    assert main(["--out", out, "tune", k2_config, "--budget", "3",
                 "--restarts", "0", "--seed", "0"]) == 0
    assert main(["--out", out, "simulate", k2_config, "--rollouts", "1",
                 "--seed", "0", "--samples", "0"]) == 0
