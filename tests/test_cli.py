import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polspin import cli
from polspin.cli import _complex9, main

ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = {
        "case": "A",
        "field": {"b_tesla": 1.0},
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


LOW_STRAIN = {"name": "low-strain", "g_cb": 0.4, "g_lh": 8.87,
              "strain_splitting_ueV": 100.0}


def test_levels_valence_splitting_skips_heavy_holes(tmp_path, capsys):
    # the strain splitting puts a heavy hole between the light holes
    cfg = write_config(tmp_path, material=LOW_STRAIN)
    code, out, _ = run_cli(["--config", cfg, "levels"], capsys)
    assert code == 0
    assert "valence_splitting_ueV: 513.429466" in out


def test_levels_negative_g_cb_ascending(tmp_path, capsys):
    cfg = write_config(tmp_path, material={
        "name": "negative-g", "g_cb": -0.4, "g_lh": 8.87,
        "strain_splitting_ueV": 20000.0})
    code, out, _ = run_cli(["--config", cfg, "levels"], capsys)
    assert code == 0
    assert "conduction_splitting_ueV: 23.1535272" in out
    assert out.index("cb mS=+1/2") < out.index("cb mS=-1/2")


def test_levels_compressive_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, material={
        "name": "compressive", "g_cb": 0.4, "g_lh": 8.87,
        "strain_splitting_ueV": 20000.0,
        "strain_sign": "compressive"})
    code, out, err = run_cli(["--config", cfg, "levels"], capsys)
    assert code == 3
    assert "HeavyHoleTopmost" in err


def test_levels_zero_field_warns(tmp_path, capsys):
    cfg = write_config(tmp_path, case="degenerate",
                       field={"b_tesla": 0.0},
                       window=None)
    code, out, _ = run_cli(["--config", cfg, "levels"], capsys)
    assert code == 0
    assert "warning: B = 0" in out


def test_levels_degenerate_shows_the_schemes_zero_field(tmp_path, capsys):
    """The degenerate scheme is the zero-field reference, so `levels` shows
    its field, not the config's, above the six levels at 0 ueV."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "degenerate",
                               "field": {"b_tesla": 2.0}}),
                   encoding="utf-8")
    code, out, _ = run_cli(["--config", str(cfg), "levels"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "b_tesla: 0" in lines and "orientation: normal" in lines
    assert "b_tesla: 2" not in lines and "orientation: inplane" not in lines
    assert "warning: B = 0, Zeeman doublets are degenerate" in lines
    levels = [ln for ln in lines if ln.endswith(" ueV") and ln.startswith("  ")]
    assert len(levels) == 6
    assert all(ln.split()[-2] == "0" for ln in levels)


# --- run ---------------------------------------------------------------------

def test_run_ideal_case_a(tmp_path, capsys):
    cfg = write_config(tmp_path, window=None)
    code, out, _ = run_cli(["--config", cfg, "run"], capsys)
    assert code == 0
    assert "round_trip_fidelity: 1.000000" in out
    assert "cptp: true" in out


def test_run_degenerate_mean(tmp_path, capsys):
    cfg = write_config(tmp_path, case="degenerate",
                       field={"b_tesla": 0.0},
                       window=None, mc_samples=20000)
    code, out, _ = run_cli(["--config", cfg, "run"], capsys)
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("mean_fidelity")][0]
    mean = float(line.split()[1])
    assert mean == pytest.approx(2.0 / 3.0, abs=0.01)
    assert "0.66" in line or "0.67" in line


def test_run_forty_site_chain(tmp_path, capsys):
    """chain.n_sites is free: a 40-site chain runs like a short one."""
    cfg = write_config(tmp_path, window=None,
                       chain={"n_sites": 40, "storage_site": 39,
                              "gate_error": 0.01})
    code, out, err = run_cli(["--config", cfg, "run"], capsys)
    assert (code, err) == (0, "")
    assert "cptp: true" in out
    # 39 hops each way: the shuttle-in stage leaves (1 + λ)/2 of fidelity
    lam = (1 - 4 * 0.01 / 3) ** 39
    assert f"shuttle_in      fidelity={(1 + lam) / 2:.6f}" in out


def test_run_missing_config_exit_2(capsys):
    code, _, err = run_cli(["--config", "/nonexistent/zzz.json", "run"], capsys)
    assert code == 2
    assert "config error" in err


def test_run_invalid_config_exit_2(tmp_path, capsys):
    # the case fixes the field's orientation, so a config cannot name one
    cfg = write_config(tmp_path, case="B",
                       field={"b_tesla": 1.0, "orientation": "inplane"})
    code, out, err = run_cli(["--config", cfg, "run"], capsys)
    assert (code, out) == (2, "")
    assert err == "config error: field: unknown key 'orientation'\n"
    # no figure reads the absolute band gap, so a config cannot name one
    cfg = write_config(tmp_path, material={**LOW_STRAIN, "band_gap_ueV": 1.5e6})
    code, out, err = run_cli(["--config", cfg, "run"], capsys)
    assert (code, out) == (2, "")
    assert err == "config error: material: unknown key 'band_gap_ueV'\n"
    cfg = write_config(tmp_path, emission_direction=[0, 0, 0])
    code, out, err = run_cli(["--config", cfg, "run"], capsys)
    assert (code, out) == (2, "")
    assert "emission_direction must be finite and non-zero" in err
    cfg = write_config(tmp_path, emission_direction=[1, 0])
    code, out, err = run_cli(["--config", cfg, "run"], capsys)
    assert (code, out) == (2, "")
    assert "emission_direction must have 3 components" in err


def test_run_dark_photon_exit_3(tmp_path, capsys):
    # a window far off every transition: the reference photon is not absorbed
    cfg = write_config(tmp_path, window={"bandwidth_ueV": 10.0,
                                         "center_offset_ueV": 1e5})
    code, out, err = run_cli(["--config", cfg, "run"], capsys)
    assert (code, out) == (3, "")
    assert "photon does not couple" in err


@pytest.mark.parametrize("compensate,want", [(True, "0.680000"),
                                              (False, "0.764706")])
def test_run_collection_fraction_follows_the_absorbed_electron(
        tmp_path, capsys, compensate, want):
    # case A collects 1/2 of the spin-down branch and all of spin-up; the
    # logical (0.6, 0.8) puts 0.64 on spin down, which the uncompensated
    # √2 imbalance weighs 1/3 against 2/3: (0.32/3 + 0.72/3) / (1.36/3) = 13/17
    cfg = write_config(tmp_path, window=None, compensate=compensate,
                       input_qubit=[0.6, 0.8])
    code, out, _ = run_cli(["--config", cfg, "run"], capsys)
    assert code == 0
    assert f"collection_fraction: {want}\n" in out


def test_run_reports_all_config_problems(tmp_path, capsys):
    cfg = write_config(tmp_path, case="B",
                       field={"b_tesla": 0.0}, storage_time_ns=-1.0,
                       absorption_efficiency=3.0)
    code, _, err = run_cli(["--config", cfg, "run"], capsys)
    assert code == 2
    assert "storage_time_ns must be finite and non-negative" in err
    assert "B > 0" in err
    assert "efficiency" in err


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("case", ["A", "B"])
@pytest.mark.parametrize("field", ["field.b_tesla", "storage_time_ns",
                                   "hadamard_time_ns", "noise.t2_iii_v_ns",
                                   "noise.t2_si_ns", "noise.transport_time_ns",
                                   "window.bandwidth_ueV",
                                   "window.center_offset_ueV",
                                   "emission_direction", "input_qubit",
                                   "material.g_cb", "material.g_lh",
                                   "material.g_hh_normal",
                                   "material.strain_splitting_ueV"])
def test_run_non_finite_exit_2(tmp_path, capsys, field, case, value):
    doc = {"case": case, "field": {"b_tesla": 1.0},
           "noise": {}, "window": {"bandwidth_ueV": 100.0},
           "material": {"g_cb": 0.4, "g_lh": 8.87, "g_hh_normal": 1.0,
                        "strain_splitting_ueV": 20000.0}}
    section, _, key = field.rpartition(".")
    if key == "emission_direction":
        value = [0.0, 0.0, value]
    if key == "input_qubit":
        value = [[value, 0.0], [0.0, 0.0]]
    (doc[section] if section else doc)[key] = value
    cfg = write_config(tmp_path, **doc)
    code, out, err = run_cli(["--config", cfg, "run"], capsys)
    assert code == 2
    assert out == ""
    assert "config error" in err
    assert key.lower() in err.lower()



@pytest.mark.parametrize("field,value", [
    ("chain.n_sites", 4.7), ("chain.n_sites", True), ("chain.n_sites", "4"),
    ("chain.storage_site", 2.9), ("mc_samples", 100.9), ("mc_samples", "200"),
    ("seed", 1.5), ("seed", False), ("seed", -1), ("seed", 2 ** 64),
    ("compensate", "false"),
    ("compensate", 0), ("compensate", None)])
def test_run_integer_and_boolean_fields_exit_2(tmp_path, capsys, field, value):
    section, _, key = field.rpartition(".")
    cfg = write_config(tmp_path, **({section: {key: value}} if section else {key: value}))
    code, out, err = run_cli(["--config", cfg, "run"], capsys)
    assert (code, out) == (2, "")
    assert f"{key} must be" in err


@pytest.mark.parametrize("doc,section", [
    ([1, 2], "config"), ("abc", "config"), ({"chain": [1]}, "chain"),
    ({"noise": "x"}, "noise"), ({"field": None}, "field"),
    ({"material": []}, "material"), ({"window": 5}, "window")])
@pytest.mark.parametrize("seed_flag", [[], ["--seed", "3"]])
def test_run_non_object_section_exit_2(tmp_path, capsys, doc, section, seed_flag):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["--config", str(path), *seed_flag, "run"], capsys)
    assert (code, out) == (2, "")
    assert err == f"config error: {section} must be a JSON object\n"


@pytest.mark.parametrize("field,value", [
    ("storage_time_ns", [1]), ("storage_time_ns", "abc"),
    ("hadamard_time_ns", None), ("absorption_efficiency", {})])
def test_run_non_number_scalar_exit_2(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, **{field: value})
    code, out, err = run_cli(["--config", cfg, "run"], capsys)
    assert (code, out) == (2, "")
    assert err == f"config error: {field} must be a number, got {value!r}\n"


@pytest.mark.parametrize("field,value", [
    ("field.b_tesla", True), ("field.b_tesla", "2.5"), ("storage_time_ns", True),
    ("chain.gate_error", False), ("window.bandwidth_ueV", "1e2"),
    ("emission_direction", [True, 0, 0]), ("input_qubit", [True, False])])
def test_run_boolean_or_string_number_exit_2(tmp_path, capsys, field, value):
    """A float field takes a JSON number only: a boolean or a numeric string
    is refused by name, not read as 1, 0 or the number it spells."""
    section, _, key = field.rpartition(".")
    cfg = write_config(tmp_path, **({section: {key: value}} if section else {key: value}))
    code, out, err = run_cli(["--config", cfg, "run"], capsys)
    assert (code, out) == (2, "")
    bad = value[0] if isinstance(value, list) else value
    assert key in err
    assert f"must be a number, got {bad!r}" in err


def test_run_integer_beyond_float_range_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, field={"b_tesla": 10 ** 400})
    code, out, err = run_cli(["--config", cfg, "run"], capsys)
    assert (code, out) == (2, "")
    assert "b_tesla is out of range" in err


@pytest.mark.parametrize("value", [[[1, 0]], 5, [1, 0, 0]])
def test_run_malformed_input_qubit_exit_2(tmp_path, capsys, value):
    cfg = write_config(tmp_path, input_qubit=value)
    code, out, err = run_cli(["--config", cfg, "run"], capsys)
    assert (code, out) == (2, "")
    assert "input_qubit: expected a pair of amplitudes" in err


def test_run_seed_flag_validated(tmp_path, capsys):
    code, out, err = run_cli(["--config", write_config(tmp_path), "--seed", "-1",
                              "run"], capsys)
    assert (code, out) == (2, "")
    assert "seed must be" in err


def test_run_integral_float_fields_accepted(tmp_path, capsys):
    ints = write_config(tmp_path, "ints.json", seed=42, mc_samples=200,
                        chain={"n_sites": 4, "storage_site": 3})
    floats = write_config(tmp_path, "floats.json", seed=42.0, mc_samples=2e2,
                          chain={"n_sites": 4.0, "storage_site": 3.0})
    first = run_cli(["--config", ints, "run"], capsys)
    assert first[0] == 0
    assert run_cli(["--config", floats, "run"], capsys) == first


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


def test_sweep_json_like_rows(tmp_path, capsys):
    cfg = write_config(tmp_path, mc_samples=50)
    args = ["--config", cfg, "sweep", "--param", "storage_time_ns",
            "--from", "0", "--to", "1e5", "--steps", "3"]
    code, csv, _ = run_cli(args + ["--format", "csv"], capsys)
    assert code == 0
    code, text, _ = run_cli(args, capsys)
    assert code == 0 and text == csv
    code, out, _ = run_cli(args + ["--format", "json-like"], capsys)
    assert code == 0
    rows = json.loads(out)
    header, *lines = csv.strip().split("\n")
    assert rows == [dict(zip(header.split(","), l.split(","))) for l in lines]
    assert out == json.dumps(rows, indent=2, sort_keys=True) + "\n"


def test_sweep_zero_steps_header_only(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out, _ = run_cli(["--config", cfg, "sweep", "--param",
                            "field.b_tesla", "--from", "0", "--to", "1",
                            "--steps", "0"], capsys)
    assert code == 0
    assert out.strip() == "param,value,mean_fidelity,stderr,success_prob,leakage,hole_purity"


def test_sweep_dark_window_exit_3(tmp_path, capsys):
    # the second point puts the window far off every transition, as in
    # test_run_dark_photon_exit_3: refused, not printed as a zero row
    cfg = write_config(tmp_path, window={"bandwidth_ueV": 10.0})
    code, out, err = run_cli(["--config", cfg, "sweep", "--param",
                              "window.center_offset_ueV", "--from", "0",
                              "--to", "1e5", "--steps", "2"], capsys)
    assert (code, out) == (3, "")
    assert "photon does not couple" in err


# windows whose squared offset-to-bandwidth ratio overflows a float: the
# window passes nothing, so the photon is refused as dark
OVERFLOWING_WINDOWS = {
    "narrow": {"window": {"bandwidth_ueV": 1e-300}},
    "far-gaussian": {"window": {"bandwidth_ueV": 100.0,
                                "center_offset_ueV": 1e300}},
    "far-lorentzian": {"window": {"bandwidth_ueV": 100.0,
                                  "center_offset_ueV": 1e300,
                                  "lineshape": "lorentzian"}},
    "strong-field": {"field": {"b_tesla": 1e300},
                     "window": {"bandwidth_ueV": 100.0}},
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(OVERFLOWING_WINDOWS))
def test_overflowing_window_is_dark(tmp_path, capsys, name):
    cfg = write_config(tmp_path, **OVERFLOWING_WINDOWS[name])
    code, out, err = run_cli(["--config", cfg, "run"], capsys)
    assert (code, out) == (3, "")
    assert err == "scenario error: ValueError: photon does not couple to this scheme\n"


@pytest.mark.parametrize("case,command", [("B", "run"), ("A", "levels")])
def test_overflowing_zeeman_energy_exit_3(tmp_path, capsys, case, command):
    # g_lh µB B overflows at 1e307 T, although the field itself is finite
    cfg = write_config(tmp_path, case=case, field={"b_tesla": 1e307}, window=None)
    code, out, err = run_cli(["--config", cfg, command], capsys)
    assert (code, out) == (3, "")
    assert err == ("scenario error: ValueError: Zeeman energy of g = 8.87 at "
                   "B = 1e+307 T overflows\n")


# a finite Zeeman energy times a finite precession time whose phase E·t/ħ
# overflows a float: refused, not printed as nan figures
OVERFLOWING_PHASES = {
    "huge-field": ({"b_tesla": 1e100}, 1e300),
    "long-time": ({"b_tesla": 1000.0}, 1e305),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(OVERFLOWING_PHASES))
def test_overflowing_precession_phase_exit_3(tmp_path, capsys, name):
    field, t_ns = OVERFLOWING_PHASES[name]
    cfg = write_config(tmp_path, case="B", field=field, window=None,
                       hadamard_time_ns=t_ns)
    code, out, err = run_cli(["--config", cfg, "run"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("scenario error: ValueError: precession phase of ")
    assert err.endswith(f"over t = {t_ns!r} ns overflows\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_to_an_overflowing_precession_phase_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, case="B", field={"b_tesla": 1e100}, window=None)
    code, out, err = run_cli(["--config", cfg, "sweep", "--param",
                              "hadamard_time_ns", "--from", "0", "--to",
                              "1e300", "--steps", "2"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("scenario error: ValueError: precession phase of ")


@pytest.mark.parametrize("case", ["A", "B", "degenerate"])
@pytest.mark.parametrize("extreme,plain", [([1e300, 1e300, 0], [1, 1, 0]),
                                           ([1e-320, 0, 0], [1, 0, 0])],
                         ids=["huge", "subnormal"])
def test_extreme_emission_direction_is_its_direction(tmp_path, capsys, case,
                                                     extreme, plain):
    # the direction's length neither overflows nor underflows its norm
    outputs = []
    for direction in (extreme, plain):
        cfg = write_config(tmp_path, case=case, emission_direction=direction)
        outputs.append(run_cli(["--config", cfg, "run"], capsys))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


# a window so narrow that its absorbed weight underflows: at 1 ueV the
# absorb stage's R00 is 5e-324, a subnormal float; at 1.2 ueV it is 2e-225
NARROW_WINDOW_COMMANDS = {
    "run": ["run"],
    "tomography": ["tomography"],
    "sweep": ["sweep", "--param", "window.bandwidth_ueV", "--from", "1",
              "--to", "100", "--steps", "3"],
}


def narrow_window_config(tmp_path, case, bandwidth):
    return write_config(tmp_path, case=case, field={"b_tesla": 1.0},
                        window={"bandwidth_ueV": bandwidth})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", sorted(NARROW_WINDOW_COMMANDS))
@pytest.mark.parametrize("case", ["A", "B"])
def test_underflowing_window_is_dark(tmp_path, capsys, case, command):
    cfg = narrow_window_config(tmp_path, case, 1.0)
    code, out, err = run_cli(["--config", cfg, *NARROW_WINDOW_COMMANDS[command]],
                             capsys)
    assert (code, out) == (3, "")
    assert err == "scenario error: ValueError: photon does not couple to this scheme\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", ["A", "B"])
def test_narrow_window_above_underflow_runs(tmp_path, capsys, case):
    cfg = narrow_window_config(tmp_path, case, 1.2)
    code, out, err = run_cli(["--config", cfg, "run", "--format", "json-like"],
                             capsys)
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert 0.0 <= float(rep["mean_fidelity"]) <= 1.0
    assert rep["cptp"] is True


# configs that pass checks on their own but let no photon through: nothing
# is absorbed, or everything is lost in transport
PASSES_NOTHING = {"absorption_efficiency": {"absorption_efficiency": 0.0},
                  "transport_loss": {"noise": {"transport_loss": 1.0}}}
DARK_COMMANDS = {"run": ["run"], "tomography": ["tomography"],
                 "sweep": ["sweep", "--param", "storage_time_ns", "--from", "0",
                           "--to", "1e5", "--steps", "2"]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", sorted(DARK_COMMANDS))
@pytest.mark.parametrize("name", sorted(PASSES_NOTHING))
def test_config_that_passes_nothing_is_dark(tmp_path, capsys, name, command):
    cfg = write_config(tmp_path, **PASSES_NOTHING[name])
    code, out, err = run_cli(["--config", cfg, *DARK_COMMANDS[command]], capsys)
    assert (code, out) == (3, "")
    assert err == "scenario error: ValueError: photon does not couple to this scheme\n"


@pytest.mark.parametrize("param,end", [("absorption_efficiency", "0"),
                                       ("noise.transport_loss", "1")])
def test_sweep_to_a_dark_point_exit_3(tmp_path, capsys, param, end):
    cfg = write_config(tmp_path)
    code, out, err = run_cli(["--config", cfg, "sweep", "--param", param,
                              "--from", end, "--to", end, "--steps", "1"], capsys)
    assert (code, out) == (3, "")
    assert "photon does not couple" in err


# sizes whose arrays (4 doubles per sample, 1 per sweep step) exceed any
# user address space (2**57 bytes) yet fit numpy's index type: numpy
# refuses them before touching any memory, whatever the kernel's
# overcommit policy (never test a size that could be allocated)
HUGE = 10 ** 17
EFFICIENCY_SWEEP = ["sweep", "--param", "absorption_efficiency", "--from",
                    "0.5", "--to", "1", "--steps"]


@pytest.mark.parametrize("mc_samples,command", [
    (HUGE, ["run"]),
    (HUGE, [*EFFICIENCY_SWEEP, "2"]),
    (200, [*EFFICIENCY_SWEEP, str(HUGE)])])
def test_unallocatable_size_exit_3(tmp_path, capsys, mc_samples, command):
    """An mc_samples or --steps too large to allocate is a scenario error,
    not a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "degenerate", "mc_samples": mc_samples}),
                   encoding="utf-8")
    code, out, err = run_cli(["--config", str(cfg), *command], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("scenario error: MemoryError: Unable to allocate ")


def test_unknown_keys_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, noise={"t2_si": 1.0}, storage_time=1e9)
    code, out, err = run_cli(["--config", cfg, "run"], capsys)
    assert (code, out) == (2, "")
    assert err == ("config error: noise: unknown key 't2_si'; "
                   "unknown key 'storage_time'\n")


def test_sweep_window_offset_needs_a_window(tmp_path, capsys):
    cfg = write_config(tmp_path, window=None)
    code, out, err = run_cli(["--config", cfg, "sweep", "--param",
                              "window.center_offset_ueV", "--from", "0",
                              "--to", "1", "--steps", "2"], capsys)
    assert (code, out) == (2, "")
    assert "window.center_offset_ueV needs a window" in err


FLAT_SWEEPS = {
    # parameters no stage of the case reads
    "degenerate-b_tesla": ({"case": "degenerate"}, "field.b_tesla", "1", "2"),
    "degenerate-bandwidth": ({"case": "degenerate"}, "window.bandwidth_ueV",
                             "1", "2"),
    "degenerate-offset": ({"case": "degenerate"}, "window.center_offset_ueV",
                          "1", "2"),
    "degenerate-hadamard": ({"case": "degenerate"}, "hadamard_time_ns", "1", "2"),
    "A-hadamard": ({"case": "A"}, "hadamard_time_ns", "1", "2"),
    # read, but degenerate absorption leaves the electron diagonal in the
    # logical basis, where no dephasing stage touches it
    "degenerate-storage": ({"case": "degenerate", "window": None},
                           "storage_time_ns", "0", "1e6"),
    "degenerate-transport_time": ({"case": "degenerate", "window": None},
                                  "noise.transport_time_ns", "0", "1e6"),
    "degenerate-dephasing": ({"case": "degenerate", "window": None},
                             "noise.transport_dephasing_fraction", "0", "1"),
    # both shuttles of a one-site chain have no hop
    "one_site-gate_error": ({"chain": {"n_sites": 1, "storage_site": 0}},
                            "chain.gate_error", "0", "0.5"),
}


@pytest.mark.parametrize("name", sorted(FLAT_SWEEPS))
def test_flat_sweep_exit_2(tmp_path, capsys, name):
    """Every point of the sweep has the first's channel and hole forms, so
    its rows would be flat: the sweep is refused as a config error."""
    overrides, param, start, stop = FLAT_SWEEPS[name]
    cfg = write_config(tmp_path, **overrides)
    code, out, err = run_cli(["--config", cfg, "sweep", "--param", param,
                              "--from", start, "--to", stop, "--steps", "3"],
                             capsys)
    assert (code, out) == (2, "")
    assert err == (f"config error: sweeping {param} has no effect: every "
                   f"point of case {overrides.get('case', 'A')} has the first "
                   "point's channel and hole forms\n")


def test_faint_channel_sweep_runs(tmp_path, capsys):
    """A channel 1e-13 as bright is swept like a brighter one: the rows at
    efficiency 1e-13 are those at 1e-3 but for the success column."""
    outs = []
    for eff in (1e-13, 1e-3):
        cfg = write_config(tmp_path, case="B", window={"bandwidth_ueV": 100.0},
                           hadamard_time_ns=0.17862, seed=1,
                           absorption_efficiency=eff)
        code, out, err = run_cli(["--config", cfg, "sweep", "--param",
                                  "noise.transport_time_ns", "--from", "0",
                                  "--to", "50", "--steps", "3"], capsys)
        assert (code, err) == (0, "")
        outs.append([line.split(",") for line in out.splitlines()])
    faint, bright = outs
    assert [row[:4] + row[5:] for row in faint] == [
        row[:4] + row[5:] for row in bright]
    assert [row[2] for row in faint[1:]] == ["1.000000", "0.865437",
                                             "0.783821"]


def test_one_value_sweep_of_a_flat_parameter_runs(tmp_path, capsys):
    cfg = write_config(tmp_path, case="degenerate", window=None)
    for start, stop, steps in (("5", "5", "1"), ("5", "5", "3")):
        code, out, err = run_cli(["--config", cfg, "sweep", "--param",
                                  "storage_time_ns", "--from", start,
                                  "--to", stop, "--steps", steps], capsys)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1 + int(steps)


@pytest.mark.parametrize("param, start, stop, steps, message", [
    ("noise.transport_dephasing_fraction", "0", "1e6", "3",
     "sweeping noise.transport_dephasing_fraction to 500000.0: dephasing "
     "fraction must lie in [0, 1]"),
    ("absorption_efficiency", "0.5", "2", "2",
     "sweeping absorption_efficiency to 2.0: absorption efficiency must lie "
     "in [0, 1]"),
    ("storage_time_ns", "-1", "1", "2",
     "sweeping storage_time_ns to -1.0: storage_time_ns must be finite and "
     "non-negative, got -1.0"),
], ids=["dephasing_fraction", "absorption_efficiency", "storage_time"])
def test_sweep_value_out_of_range_exit_2(tmp_path, capsys, param, start, stop,
                                         steps, message):
    """A sweep value its field refuses is a config error, as the same value
    in the config file is, named with its parameter."""
    cfg = write_config(tmp_path, case="degenerate")
    code, out, err = run_cli(["--config", cfg, "sweep", "--param", param,
                              "--from", start, "--to", stop, "--steps", steps],
                             capsys)
    assert (code, out) == (2, "")
    assert err == f"config error: {message}\n"


def test_sweep_unknown_param_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, _, err = run_cli(["--config", cfg, "sweep", "--param", "bogus",
                            "--from", "0", "--to", "1", "--steps", "2"], capsys)
    assert code == 2


@pytest.mark.parametrize("param, window, message", [
    ("bogus", {"bandwidth_ueV": 100.0},
     "unknown sweep parameter 'bogus'; choose from "
     "absorption_efficiency, chain.gate_error, field.b_tesla, "
     "hadamard_time_ns, noise.transport_dephasing_fraction, "
     "noise.transport_loss, noise.transport_time_ns, storage_time_ns, "
     "window.bandwidth_ueV, window.center_offset_ueV"),
    ("window.center_offset_ueV", None,
     "sweeping window.center_offset_ueV needs a window in the config"),
], ids=["unknown", "offset_without_window"])
def test_sweep_parameter_error_is_unquoted(tmp_path, capsys, param, window,
                                           message):
    """A refused sweep parameter prints its message as is: str() of the
    KeyError would wrap it in quotes."""
    cfg = write_config(tmp_path, window=window)
    code, out, err = run_cli(["--config", cfg, "sweep", "--param", param,
                              "--from", "0", "--to", "1", "--steps", "2"],
                             capsys)
    assert (code, out) == (2, "")
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--from", "--to"])
def test_sweep_non_finite_endpoint_exit_2(tmp_path, flag, bad):
    # a fresh process, so that a numpy RuntimeWarning would reach stderr
    cfg = write_config(tmp_path)
    ends = {"--from": "0", "--to": "1", flag: bad}
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "polspin.cli", "--config", cfg, "sweep",
         "--param", "field.b_tesla", "--steps", "3"]
        + [f"{name}={value}" for name, value in ends.items()],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"config error: {flag} must be finite")
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("flag", ["--from", "--to"])
@pytest.mark.parametrize("exponent,plain", [("-1e1", "-10"), ("-1E-3", "-0.001"),
                                            ("-.5e1", "-5")])
def test_sweep_negative_exponent_endpoint(tmp_path, capsys, flag, exponent,
                                          plain):
    """A negative endpoint in exponent form is a value, not an option: the
    output is byte-identical to the plain form."""
    cfg = write_config(tmp_path)
    outs = []
    for value in (exponent, plain):
        ends = {"--from": "0", "--to": "0", flag: value}
        code, out, err = run_cli(
            ["--config", cfg, "sweep", "--param", "window.center_offset_ueV",
             "--steps", "3"] + [x for item in ends.items() for x in item], capsys)
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    assert f",{plain}," in outs[0]


def test_sweep_flag_prefix_refused(tmp_path, capsys):
    """Flags are read by their full name only: the prefix --fro is refused
    whatever its value, while --from takes a negative exponent value."""
    cfg = write_config(tmp_path)
    args = ["--config", cfg, "sweep", "--param", "window.center_offset_ueV",
            "--to", "0", "--steps", "2"]
    for flag, value, want in (("--fro", "-10", 2), ("--fro", "-1e1", 2),
                              ("--from", "-1e1", 0)):
        code, out, _ = run_cli(args + [flag, value], capsys)
        assert code == want, (flag, value)
        assert (out != "") == (want == 0)


@pytest.mark.parametrize("flag", ["--from", "--to"])
def test_sweep_bare_negative_infinity_exit_2(tmp_path, capsys, flag):
    cfg = write_config(tmp_path)
    ends = {"--from": "0", "--to": "1", flag: "-inf"}
    code, out, err = run_cli(
        ["--config", cfg, "sweep", "--param", "field.b_tesla", "--steps", "3"]
        + [x for item in ends.items() for x in item], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {flag} must be finite")


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


IDENTITY_CHOI = [[[0.5, 0], [0, 0], [0, 0], [0.5, 0]],
                 [[0, 0], [0, 0], [0, 0], [0, 0]],
                 [[0, 0], [0, 0], [0, 0], [0, 0]],
                 [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]]


def _with_entry(value):
    doc = json.loads(json.dumps(IDENTITY_CHOI))
    doc[1][2] = value
    return doc


def test_tomography_choi_file_verdict(tmp_path, capsys):
    path = tmp_path / "choi.json"
    path.write_text(json.dumps(IDENTITY_CHOI), encoding="utf-8")
    code, out, _ = run_cli(["tomography", "--choi", str(path)], capsys)
    assert code == 0
    assert "cptp: true" in out
    assert "process_fidelity: 1" in out


def test_tomography_choi_file_json_like(tmp_path, capsys):
    path = tmp_path / "choi.json"
    path.write_text(json.dumps(IDENTITY_CHOI), encoding="utf-8")
    code, out, _ = run_cli(["tomography", "--choi", str(path),
                            "--format", "json-like"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["choi", "cptp", "process_fidelity"]
    assert doc["choi"][0] == ["0.5+0j", "0+0j", "0+0j", "0.5+0j"]
    assert doc["cptp"] is True
    assert doc["process_fidelity"] == "1"


@pytest.mark.parametrize("text", [
    json.dumps(_with_entry([float("nan"), 0.0])),          # NaN
    json.dumps(_with_entry([0.0, float("inf")])),          # Infinity
    json.dumps([[[1, 0], [0, 0]], [[0, 0], [1, 0]]]),      # 2x2
    json.dumps([[[1, 0]] * 3] * 3),                        # 3x3
    json.dumps([]),
    json.dumps([[[1, 0]] * 4] * 3 + [[[1, 0]] * 3]),       # ragged
    json.dumps(IDENTITY_CHOI)[:-1],                        # not JSON
    json.dumps(_with_entry({"0": 1, "1": 0})),             # object entry
    json.dumps(_with_entry([True, False])),                # booleans
    json.dumps(_with_entry([1, 0, 5])),                    # three parts
])
def test_tomography_choi_file_refused(tmp_path, capsys, text):
    path = tmp_path / "bad-choi.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["tomography", "--choi", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:") and str(path) in err


@pytest.mark.parametrize("entry,problem", [
    ({"0": 1, "1": 0}, "must be an [re, im] pair, got {'0': 1, '1': 0}"),
    ([True, False], "must be a number, got True"),
    ([1, 0, 5], "must be an [re, im] pair, got [1, 0, 5]"),
    ([1, "0"], "must be a number, got '0'"),
    ([float("nan"), 0], "must be finite, got [nan, 0]"),
])
def test_tomography_choi_file_names_the_entry(tmp_path, capsys, entry, problem):
    path = tmp_path / "bad-choi.json"
    path.write_text(json.dumps(_with_entry(entry)), encoding="utf-8")
    code, out, err = run_cli(["tomography", "--choi", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"config error: choi file {path}: entry [1][2] {problem}\n"


@pytest.mark.parametrize("z", [0.0959716502 + 0j, 0.131319158 - 0.25j,
                               -0.5 + 1e-3j, 0.0353475082j])
def test_choi_entry_print_ignores_round_off(z):
    assert _complex9(z + 1e-15) == _complex9(z)
    assert _complex9(z - 1e-15j) == _complex9(z)


def test_choi_entry_residue_prints_zero():
    assert _complex9(1e-17 - 3e-40j) == "0+0j"
    assert _complex9(-4.7e-17 - 0.0j) == "0+0j"
    assert _complex9(0.0959716502 - 4.70125497e-17j) == "0.0959716502+0j"


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



@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag,name", [("--capacitance", "capacitance_farad"),
                                       ("--resistance", "tunnel_resistance_ohm"),
                                       ("--confinement", "confinement_energy_uev"),
                                       ("--temperature", "temperature_k")])
def test_check_dot_non_finite_refused(capsys, flag, name, value):
    args = {"--capacitance": "1e-18", "--resistance": "26000",
            "--confinement": "1000", "--temperature": "4.0"}
    args[flag] = value
    code, out, err = run_cli(["check-dot"] + [f"{k}={v}" for k, v in args.items()],
                             capsys)
    assert (code, out) == (3, "")
    assert f"{name} must be finite and positive" in err


@pytest.mark.parametrize("flag,name", [("--capacitance", "capacitance_farad"),
                                       ("--resistance", "tunnel_resistance_ohm"),
                                       ("--confinement", "confinement_energy_uev"),
                                       ("--temperature", "temperature_k")])
def test_check_dot_negative_exponent_is_a_value(capsys, flag, name):
    """check-dot reads "-1e1" as a value, as it reads "-10": both are
    refused as non-positive, with the same message."""
    results = []
    for value in ("-1e1", "-10"):
        args = {"--capacitance": "1e-18", "--resistance": "26000",
                "--confinement": "1000", "--temperature": "4.0", flag: value}
        results.append(run_cli(
            ["check-dot"] + [x for item in args.items() for x in item], capsys))
    assert results[0] == results[1]
    code, out, err = results[0]
    assert (code, out) == (3, "")
    assert f"{name} must be finite and positive" in err


# --- output ------------------------------------------------------------------

DOT_PASS = ["check-dot", "--capacitance", "1e-17", "--resistance", "26000",
            "--confinement", "2000", "--temperature", "4.0"]
DOT_FAIL = ["check-dot", "--capacitance", "1e-18", "--resistance", "25000",
            "--confinement", "1000", "--temperature", "4.0"]


@pytest.mark.parametrize("command", ["run", "check-dot-pass", "check-dot-fail"])
def test_unwritable_out_exit_2(tmp_path, capsys, command):
    """An --out path that cannot be opened is a config error, also for a
    check-dot whose verdict would exit 1."""
    out = tmp_path / "missing" / "x.txt"
    args = {"run": ["--config", write_config(tmp_path), "run"],
            "check-dot-pass": DOT_PASS, "check-dot-fail": DOT_FAIL}[command]
    code, stdout, err = run_cli(["--out", str(out)] + args, capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"config error: cannot write {out}: ")
    assert err.count("\n") == 1
    assert not out.parent.exists()


@pytest.mark.parametrize("command,fmt", [("tomography", "csv"),
                                         ("check-dot", "csv"),
                                         ("check-dot", "json-like")])
def test_format_a_command_does_not_print_exit_2(tmp_path, capsys, command, fmt):
    args = {"tomography": ["--config", write_config(tmp_path), "tomography"],
            "check-dot": ["check-dot", "--capacitance", "1e-17",
                          "--resistance", "26000", "--confinement", "2000",
                          "--temperature", "4.0"]}[command]
    code, out, err = run_cli(args + ["--format", fmt], capsys)
    assert (code, out) == (2, "")
    assert f"{command} does not print --format {fmt}" in err


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
                       field={"b_tesla": 0.0},
                       window=None, mc_samples=500)
    _, out_a, _ = run_cli(["--config", cfg, "--seed", "1", "run"], capsys)
    _, out_b, _ = run_cli(["--config", cfg, "--seed", "2", "run"], capsys)
    _, out_a2, _ = run_cli(["--config", cfg, "--seed", "1", "run"], capsys)
    assert out_a == out_a2
    assert out_a != out_b


# --- parser reuse ------------------------------------------------------------

def test_main_reuses_one_parser_without_leaking_state(tmp_path, capsys):
    """Each call through the parser that earlier calls used prints, writes
    and exits as the same call through a freshly built parser."""
    seeded = write_config(tmp_path, "seeded.json", case="degenerate",
                          field={"b_tesla": 0.0}, window=None)
    cfg = write_config(tmp_path)
    out = tmp_path / "out.txt"
    calls = [
        ["--config", seeded, "--seed", "5", "run"],
        ["--config", seeded, "run"],
        ["--config", seeded, "--out", str(out), "run"],
        ["--config", seeded, "run"],
        ["--config", cfg, "tomography", "--format", "csv"],
        ["--config", cfg, "tomography"],
        ["--config", cfg, "sweep", "--param", "window.center_offset_ueV",
         "--from", "-1e1", "--to", "0", "--steps", "2"],
        DOT_FAIL,
        ["--help"],
    ]

    def call(args):
        code, stdout, err = run_cli(args, capsys)
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return code, stdout, err, written

    reused = [call(args) for args in calls]
    fresh = []
    for args in calls:
        cli._build_parser.cache_clear()
        fresh.append(call(args))
    assert reused == fresh
    assert [r[0] for r in reused] == [0, 0, 0, 0, 2, 0, 0, 1, 0]
    # without --seed the config's seed is used, not the previous call's 5
    assert reused[1][1] != reused[0][1]
    assert reused[2][3] == reused[3][1].encode()
    assert reused[8][1].startswith("usage: polspin")


def test_main_builds_its_parser_once(tmp_path, capsys):
    cfg = write_config(tmp_path)
    calls = [["--config", cfg, "levels"], ["--config", cfg, "run"],
             ["--config", cfg, "tomography"], DOT_PASS,
             ["--config", cfg, "sweep", "--param", "storage_time_ns",
              "--from", "0", "--to", "1", "--steps", "1"]]
    cli._build_parser.cache_clear()
    for args in calls * 2:
        assert run_cli(args, capsys)[0] == 0
    assert cli._build_parser.cache_info().misses == 1
