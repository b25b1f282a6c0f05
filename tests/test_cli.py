import json
import math

import numpy as np
import pytest

from polspin.cli import main


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = {
        "case": "A",
        "field": {"b_tesla": 1.0, "orientation": "normal"},
        "window": {"bandwidth_ueV": 100.0, "lineshape": "gaussian"},
        "compensate": True,
        "seed": 42,
        "mc_samples": 200,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- levels ------------------------------------------------------------------

def test_levels_default_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out, _ = run_cli(["--config", cfg, "levels"], capsys)
    assert code == 0
    assert "valence_splitting_ueV: 513.429466" in out
    assert "lh mJ=+1/2" in out
    assert "valence_resolved: true" in out


def test_levels_compressive_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, material={
        "name": "compressive", "g_cb": 0.4, "g_lh": 8.87,
        "strain_splitting_ueV": 20000.0, "band_gap_ueV": 1500000.0,
        "strain_sign": "compressive"})
    code, out, err = run_cli(["--config", cfg, "levels"], capsys)
    assert code == 3
    assert "HeavyHoleTopmost" in err


def test_levels_zero_field_warns(tmp_path, capsys):
    cfg = write_config(tmp_path, case="degenerate",
                       field={"b_tesla": 0.0, "orientation": "normal"},
                       window=None)
    code, out, _ = run_cli(["--config", cfg, "levels"], capsys)
    assert code == 0
    assert "warning: B = 0" in out


# --- run ---------------------------------------------------------------------

def test_run_ideal_case_a(tmp_path, capsys):
    cfg = write_config(tmp_path, window=None)
    code, out, _ = run_cli(["--config", cfg, "run"], capsys)
    assert code == 0
    assert "round_trip_fidelity: 1.000000" in out
    assert "cptp: true" in out


def test_run_degenerate_mean(tmp_path, capsys):
    cfg = write_config(tmp_path, case="degenerate",
                       field={"b_tesla": 0.0, "orientation": "normal"},
                       window=None, mc_samples=20000)
    code, out, _ = run_cli(["--config", cfg, "run"], capsys)
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("mean_fidelity")][0]
    mean = float(line.split()[1])
    assert mean == pytest.approx(2.0 / 3.0, abs=0.01)
    assert "0.66" in line or "0.67" in line


def test_run_missing_config_exit_2(capsys):
    code, _, err = run_cli(["--config", "/nonexistent/zzz.json", "run"], capsys)
    assert code == 2
    assert "config error" in err


def test_run_invalid_config_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, case="B",
                       field={"b_tesla": 1.0, "orientation": "normal"})
    code, _, err = run_cli(["--config", cfg, "run"], capsys)
    assert code == 2
    assert "surface plane" in err


def test_run_reports_all_config_problems(tmp_path, capsys):
    cfg = write_config(tmp_path, case="B",
                       field={"b_tesla": 0.0, "orientation": "normal"},
                       absorption_efficiency=3.0)
    code, _, err = run_cli(["--config", cfg, "run"], capsys)
    assert code == 2
    assert "surface plane" in err
    assert "B > 0" in err
    assert "efficiency" in err


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("case,orientation", [("A", "normal"), ("B", "inplane")])
@pytest.mark.parametrize("field", ["field.b_tesla", "storage_time_ns",
                                   "hadamard_time_ns", "noise.t2_iii_v_ns",
                                   "noise.t2_si_ns", "noise.transport_time_ns",
                                   "window.bandwidth_ueV",
                                   "window.center_offset_ueV",
                                   "emission_direction"])
def test_run_non_finite_exit_2(tmp_path, capsys, field, case, orientation, value):
    doc = {"case": case, "field": {"b_tesla": 1.0, "orientation": orientation},
           "noise": {}, "window": {"bandwidth_ueV": 100.0}}
    section, _, key = field.rpartition(".")
    if key == "emission_direction":
        value = [0.0, 0.0, value]
    (doc[section] if section else doc)[key] = value
    cfg = write_config(tmp_path, **doc)
    code, out, err = run_cli(["--config", cfg, "run"], capsys)
    assert code == 2
    assert out == ""
    assert "config error" in err
    assert key.lower() in err.lower()


# --- sweep -------------------------------------------------------------------

def test_sweep_csv_shape(tmp_path, capsys):
    cfg = write_config(tmp_path, mc_samples=50)
    code, out, _ = run_cli(["--config", cfg, "sweep", "--param",
                            "field.b_tesla", "--from", "0.1", "--to", "1.0",
                            "--steps", "10"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "param,value,mean_fidelity,stderr,success_prob,leakage,hole_purity"
    assert len(lines) == 11


def test_sweep_bandwidth_leakage_monotone(tmp_path, capsys):
    cfg = write_config(tmp_path, mc_samples=30)
    code, out, _ = run_cli(["--config", cfg, "sweep", "--param",
                            "window.bandwidth_ueV", "--from", "50", "--to",
                            "600", "--steps", "6"], capsys)
    assert code == 0
    leaks = [float(l.split(",")[5]) for l in out.strip().split("\n")[1:]]
    assert all(a <= b + 1e-12 for a, b in zip(leaks, leaks[1:]))


def test_sweep_zero_steps_header_only(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out, _ = run_cli(["--config", cfg, "sweep", "--param",
                            "field.b_tesla", "--from", "0", "--to", "1",
                            "--steps", "0"], capsys)
    assert code == 0
    assert out.strip() == "param,value,mean_fidelity,stderr,success_prob,leakage,hole_purity"


def test_sweep_unknown_param_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, _, err = run_cli(["--config", cfg, "sweep", "--param", "bogus",
                            "--from", "0", "--to", "1", "--steps", "2"], capsys)
    assert code == 2


# --- tomography --------------------------------------------------------------

def test_tomography_identity_scenario(tmp_path, capsys):
    cfg = write_config(tmp_path, window=None)
    code, out, _ = run_cli(["--config", cfg, "tomography"], capsys)
    assert code == 0
    assert "cptp: true" in out
    assert "process_fidelity: 1" in out
    # diagonally dominant Choi: corners carry 0.5 each of the trace... the
    # trace itself is the success probability (1/3 for compensated case A)
    first = out.splitlines()[1].split()[0]
    assert abs(complex(first.replace("j", "j")) - 1 / 6) < 1e-6


def test_tomography_dephasing_offdiagonal(tmp_path, capsys):
    cfg = write_config(tmp_path, window=None, storage_time_ns=5.0e5)
    code, out, _ = run_cli(["--config", cfg, "tomography"], capsys)
    assert code == 0
    rows = [l.split() for l in out.splitlines()[1:5]]
    corner = complex(rows[0][3])
    diag = complex(rows[0][0])
    assert abs(corner / diag - math.exp(-1.0)) < 1e-6


def test_tomography_nonphysical_matrix(tmp_path, capsys):
    bad = [[[1.0, 0], [0, 0], [0, 0], [0, 0]],
           [[0, 0], [-0.01, 0], [0, 0], [0, 0]],
           [[0, 0], [0, 0], [0.5, 0], [0, 0]],
           [[0, 0], [0, 0], [0, 0], [0.01, 0]]]
    path = tmp_path / "choi.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    code, out, _ = run_cli(["tomography", "--choi", str(path)], capsys)
    assert code == 0
    assert "cptp: false" in out


# --- check-dot ---------------------------------------------------------------

def test_check_dot_pass_at_26k(capsys):
    code, out, _ = run_cli(["check-dot", "--capacitance", "1e-18",
                            "--resistance", "26000", "--confinement", "1000",
                            "--temperature", "4.0"], capsys)
    assert code == 0
    assert "resistance  PASS" in out
    assert "25812.807" in out


def test_check_dot_fail_at_25k(capsys):
    code, out, _ = run_cli(["check-dot", "--capacitance", "1e-18",
                            "--resistance", "25000", "--confinement", "1000",
                            "--temperature", "4.0"], capsys)
    assert code == 1
    assert "resistance  FAIL" in out


def test_check_dot_tiny_temperature(capsys):
    code, out, _ = run_cli(["check-dot", "--capacitance", "1e-15",
                            "--resistance", "30000", "--confinement", "10",
                            "--temperature", "0.001"], capsys)
    assert code == 0
    assert out.count("PASS") == 3


# --- determinism -------------------------------------------------------------

@pytest.mark.parametrize("fmt", ["text", "csv", "json-like"])
def test_run_byte_determinism(tmp_path, fmt, capsys):
    cfg = write_config(tmp_path, mc_samples=500)
    outs = []
    for i in range(2):
        path = tmp_path / f"out{i}.{fmt}"
        code = main(["--config", cfg, "--out", str(path), "run",
                     "--format", fmt])
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_sweep_byte_determinism(tmp_path):
    cfg = write_config(tmp_path, mc_samples=200)
    outs = []
    for i in range(2):
        path = tmp_path / f"sweep{i}.csv"
        code = main(["--config", cfg, "--out", str(path), "sweep", "--param",
                     "storage_time_ns", "--from", "0", "--to", "1e5",
                     "--steps", "4"])
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert b"\r" not in outs[0]


def test_seed_flag_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, case="degenerate",
                       field={"b_tesla": 0.0, "orientation": "normal"},
                       window=None, mc_samples=500)
    _, out_a, _ = run_cli(["--config", cfg, "--seed", "1", "run"], capsys)
    _, out_b, _ = run_cli(["--config", cfg, "--seed", "2", "run"], capsys)
    _, out_a2, _ = run_cli(["--config", cfg, "--seed", "1", "run"], capsys)
    assert out_a == out_a2
    assert out_a != out_b
