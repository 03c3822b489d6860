import io
import json
import math
import os
import subprocess
import sys
import time

import pytest

import gwtheta
from gwtheta.cli import main
from gwtheta.environment import EnvSequence, ThetaModel
from gwtheta.harness import scenario_model
from gwtheta.series import step_pmf, write_pmf_csv


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "--scenario", "Ex1",
                       "--theta", "1", "--sigma", "1", "--n", "100")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["n"] == 100
    assert abs(rows[0]["F_n(0)"]) < 1e-12
    assert rows[0]["A_n"] == pytest.approx(1 / 101)


def test_analyze_csv_format(capsys, tmp_path):
    path = tmp_path / "table.csv"
    code, _, _ = run(capsys, "analyze", "--scenario", "Ex2",
                     "--ns", "10,20", "--format", "csv",
                     "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("n,A_n,C_n")
    assert len(lines) == 3
    # 17 significant digits, '.' decimal
    a10 = lines[1].split(",")[1]
    assert float(a10) == pytest.approx(13 / 33, rel=1e-15)
    assert "," not in a10 and "e" not in a10.split(".")[0]


def test_pmf_csv(capsys):
    code, out, _ = run(capsys, "pmf", "--scenario", "Ex9i", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,weight"
    assert lines[-1].startswith("cutoff,")


def test_pmf_rejects_nan_tail_tol(capsys):
    code, out, err = run(capsys, "pmf", "--scenario", "Ex10ii", "--n", "5",
                         "--tail-tol", "nan")
    assert (code, out) == (2, "")
    assert err == "gwtheta: tail_tol must be > 0, got nan\n"


def test_pmf_heavy_tail_exit_2(capsys):
    code, out, err = run(capsys, "pmf", "--scenario", "Ex10ii", "--n", "10")
    assert (code, out) == (2, "")
    assert err == (
        "gwtheta: tail mass 4.209e-03 cannot reach tail_tol 1.000e-12 "
        "within the cutoff budget 1048576 (heavy-tailed law; raise "
        "max_cutoff or tail_tol)\n")


def _overflow_model(tmp_path):
    # composite A_2 = 1e200^2 overflows to inf
    spec = {"theta": 1.0, "r": 1.0,
            "a": EnvSequence.from_table([1e200] * 3).to_dict(),
            "c": EnvSequence.from_table([1.0] * 3).to_dict()}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(spec))
    return path


def test_pmf_non_finite_weight_exit_2(capsys, tmp_path):
    path = _overflow_model(tmp_path)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "pmf", "--model", str(path), "--n", "2")
    assert time.perf_counter() - t0 < 0.1
    assert (code, out) == (2, "")
    assert err == "gwtheta: non-finite pmf coefficient at cutoff 64\n"


def test_analyze_overflow_exit_2(capsys, tmp_path):
    # A_1 = 1e200 is finite, A_2 overflows: the table stops with one line
    # naming n instead of writing "A_n": Infinity
    path = _overflow_model(tmp_path)
    code, out, err = run(capsys, "analyze", "--model", str(path), "--n", "2")
    assert (code, out) == (2, "")
    assert err == ("gwtheta: composite constants overflow at n = 2: "
                   "A_n = inf, C_n = 1e+200\n")
    code, out, _ = run(capsys, "analyze", "--model", str(path), "--n", "1")
    assert code == 0 and json.loads(out)[0]["A_n"] == 1e200


def test_pmf_non_finite_weight_prints_no_numpy_warning(tmp_path):
    # pytest records warnings rather than printing them, so the CLI runs in
    # a process of its own, where a numpy RuntimeWarning would reach stderr
    src = os.path.dirname(os.path.dirname(gwtheta.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "gwtheta.cli", "pmf", "--model",
         str(_overflow_model(tmp_path)), "--n", "2"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "gwtheta: non-finite pmf coefficient at cutoff 64\n"


def test_unknown_scenario_message_is_unquoted(capsys):
    # str() of the KeyError would quote the message a second time
    code, out, err = run(capsys, "verify", "--scenario", "Bogus")
    assert (code, out) == (2, "")
    assert err == "gwtheta: unknown scenario 'Bogus'\n"


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--scenario", "Ex3")
    assert code == 0
    assert json.loads(out)["regime"] == "critical"


def test_classify_overflow_exit_2(capsys, tmp_path):
    # A_2 overflows, so every checkpoint of the default horizon 10^4 does:
    # one line naming the first, N/8, and no Infinity or NaN written
    path = _overflow_model(tmp_path)
    code, out, err = run(capsys, "classify", "--model", str(path))
    assert (code, out) == (2, "")
    assert err == ("gwtheta: composite constants overflow at n = 1250: "
                   "A_n = inf, C_n = inf\n")


def test_simulate_deterministic(capsys, tmp_path):
    argv = ("simulate", "--scenario", "Ex1", "--horizon", "10",
            "--replicates", "200", "--seed", "5")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["seed"] == 5
    assert payload["replicates"] == 200


def test_simulate_trajectory_file(capsys, tmp_path):
    path = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "simulate", "--scenario", "Ex3",
                     "--horizon", "8", "--replicates", "10", "--seed", "1",
                     "--trajectory", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "generation,state"
    assert len(lines) == 10


def test_simulate_logs_generated_seed(capsys, caplog):
    code = main(["simulate", "--scenario", "Ex1", "--horizon", "5",
                 "--replicates", "50"])
    capsys.readouterr()
    assert code == 0
    assert any("seed" in rec.message for rec in caplog.records)


def test_verify_single_scenario(capsys):
    code, out, err = run(capsys, "verify", "--scenario", "Ex4a",
                         "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"][0]["pass"] is True
    assert "Ex4a" in err


def test_model_json_round_trip(capsys, tmp_path):
    path = tmp_path / "model.json"
    code, _, _ = run(capsys, "classify", "--scenario", "Ex7ii",
                     "--write-model", str(path))
    assert code == 0
    reparsed = ThetaModel.from_dict(json.loads(path.read_text()))
    assert reparsed == scenario_model("Ex7ii")
    # and the written file is accepted as a --model source
    code, out, _ = run(capsys, "classify", "--model", str(path))
    assert code == 0
    assert json.loads(out)["regime"] == "defective"


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "classify")          # no model source
    assert code == 2 and "scenario" in err
    code, _, err = run(capsys, "classify", "--scenario", "Ex1",
                       "--model", "x.json")
    assert code == 2
    code, _, err = run(capsys, "classify", "--scenario", "Ex99")
    assert code == 2
    code, _, err = run(capsys, "analyze", "--scenario", "Ex7i",
                       "--sigma", "9")
    assert code == 2 and "violates" in err


def test_model_overrides_rejected_with_model_file(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(scenario_model("Ex1").to_dict()))
    code, _, err = run(capsys, "classify", "--model", str(path),
                       "--theta", "0.5")
    assert code == 2 and "--theta" in err


def test_nan_model_is_invalid(capsys, tmp_path):
    spec = {"theta": 0.5, "r": 2.0,
            "a": EnvSequence.from_table([0.5]).to_dict(),
            "c": EnvSequence.from_table([math.nan]).to_dict()}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "analyze", "--model", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "invalid model" in err


@pytest.mark.parametrize("command", ["analyze", "pmf", "classify",
                                     "simulate"])
def test_undefined_log_d_is_usage_error(capsys, tmp_path, command):
    # case (f), c_n = r within BOUND_SLACK of c_n <= 1: D_n would be
    # undefined, so every command refuses the model by c_n < r
    r = 1.0 + 1e-13
    spec = {"theta": 0.0, "r": r,
            "a": EnvSequence.constant(0.5).to_dict(),
            "c": EnvSequence.constant(r).to_dict()}
    path = tmp_path / "undefined_d.json"
    path.write_text(json.dumps(spec))
    seed = ["--seed", "1"] if command == "simulate" else []
    code, out, err = run(capsys, command, "--model", str(path), *seed)
    assert code == 2 and out == ""
    assert err.startswith("gwtheta: invalid model: case (f)")
    assert err.endswith("violates c_n < r\n") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv,sigma,index", [
    (["classify", "--scenario", "Ex6i"], 100.0, 1210),
    (["analyze", "--scenario", "Ex6iii", "--n", "5"], 200.0, 35)])
def test_exp_tail_power_overflow_is_invalid_model(capsys, argv, sigma, index):
    # n^sigma overflows past check_horizon (1210, met by the scan) or
    # within it (35, met by validation); neither is an internal error
    code, out, err = run(capsys, *argv, "--sigma", str(sigma))
    assert code == 2 and out == ""
    assert err == (f"gwtheta: invalid model: exp_tail_ex6 with sigma = "
                   f"{sigma}: n^sigma overflows at n = {index}\n")


def test_overflowing_restricted_mean_is_infinity(capsys):
    # A_10^(-1/theta) at theta = 0.003 is beyond the float range
    code, out, err = run(capsys, "analyze", "--scenario", "Ex1", "--theta",
                         "0.003", "--n", "10")
    assert code == 0 and err == ""
    assert '"mean_restricted": Infinity' in out
    assert json.loads(out)[0]["mean_restricted"] == math.inf


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    import gwtheta.cli as cli

    def broken(args):
        raise ZeroDivisionError("float division by zero\nsecond line")
    monkeypatch.setattr(cli, "_cmd_classify", broken)
    code, out, err = run(capsys, "classify", "--scenario", "Ex1")
    assert code == cli.EXIT_INTERNAL == 3
    assert len({cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_USAGE,
                cli.EXIT_INTERNAL}) == 4
    assert out == ""
    assert err == ("gwtheta: internal error: ZeroDivisionError: float "
                   "division by zero\n")


def test_negative_workers_exit_2(capsys):
    code, out, err = run(capsys, "simulate", "--scenario", "Ex1",
                         "--horizon", "5", "--replicates", "10", "--seed",
                         "1", "--workers", "-3")
    assert code == 2 and out == ""
    assert err == "gwtheta: workers must be >= 1\n"


@pytest.mark.parametrize("mode", ["generational", "direct"])
def test_simulate_horizon_below_one_exit_2(capsys, mode):
    code, out, err = run(capsys, "simulate", "--scenario", "Ex1",
                         "--horizon", "0", "--replicates", "10", "--seed",
                         "1", "--mode", mode)
    assert code == 2 and out == ""
    assert err == "gwtheta: horizon must be >= 1\n"


def test_verify_workers_below_one_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--scenario", "Ex4a", "--seed",
                         "7", "--workers", "0")
    assert code == 2 and out == ""
    assert err == "gwtheta: workers must be >= 1, got 0\n"


def test_non_integer_workers_variable_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("GWTHETA_WORKERS", "abc")
    code, out, err = run(capsys, "classify", "--scenario", "Ex1")
    assert code == 2 and out == ""
    assert err == "gwtheta: GWTHETA_WORKERS is not an integer: 'abc'\n"


@pytest.mark.parametrize("scenario,flag,value", [
    ("Ex1", "--r", "2"), ("Ex6i", "--theta", "0.5"), ("Ex9i", "--theta", "1"),
    ("Ex10i", "--r", "3")])
def test_override_of_a_parameter_the_scenario_lacks_exit_2(capsys, scenario,
                                                           flag, value):
    code, out, err = run(capsys, "analyze", "--scenario", scenario, flag,
                         value, "--n", "10")
    assert code == 2 and out == ""
    assert err.startswith(f"gwtheta: invalid model: scenario {scenario} has "
                          f"no free parameter '{flag[2:]}'")


@pytest.mark.parametrize("flag", ["--replicates", "--horizon"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_verify_counts_below_one_exit_2(capsys, flag, value):
    code, out, err = run(capsys, "verify", "--scenario", "Ex7i", "--seed",
                         "7", flag, value)
    assert code == 2 and out == ""
    least = 10 if flag == "--horizon" else 1
    assert err == f"gwtheta: {flag[2:]} must be >= {least}, got {value}\n"


@pytest.mark.parametrize("scenario", ["Ex3", "Ex2", "Ex6i"])
def test_verify_horizon_below_ten_exit_2(capsys, scenario):
    # every suite reads at least ten generations, so the bound holds for
    # every scenario, not only for the suites that would fail on it
    code, out, err = run(capsys, "verify", "--scenario", scenario, "--seed",
                         "7", "--horizon", "5", "--replicates", "50")
    assert code == 2 and out == ""
    assert err == "gwtheta: horizon must be >= 10, got 5\n"


def test_constant_sequence_without_value_exit_2(capsys, tmp_path):
    spec = {"theta": 0.0, "r": 2.0,
            "a": EnvSequence.constant(0.5).to_dict(),
            "c": {"family": "constant", "params": {}}}
    path = tmp_path / "no_value.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "analyze", "--model", str(path))
    assert code == 2 and out == ""
    assert "requires parameter 'value'" in err


def test_pmf_step_kind_writes_step_pmf(capsys):
    code, out, _ = run(capsys, "pmf", "--scenario", "Ex9i", "--n", "3",
                       "--kind", "step")
    assert code == 0
    want = io.StringIO()
    write_pmf_csv(step_pmf(scenario_model("Ex9i"), 3), want)
    assert out == want.getvalue()
