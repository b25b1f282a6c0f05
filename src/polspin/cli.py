"""Command-line front end.

Subcommands: levels, run, sweep, tomography, check-dot.  Configuration is a
JSON document whose physical quantities carry unit-suffixed field names
(b_tesla, bandwidth_ueV, storage_time_ns, ...).  Output is deterministic
for a given (config, seed): fixed decimal formatting, '.' radix, LF line
endings.  Exit codes: 0 success, 2 usage/config error, 3 scenario error,
1 failed device-constraint check.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bands import (CASE_A, CASE_B, DEGENERATE, FieldConfig, INAS_GAAS_QW, NORMAL,
                    INPLANE, MaterialParams, SpectralWindow, TENSILE,
                    resolvability_check)
from .errors import PolspinError
from .noise import NoiseModel
from .pipeline import (ChainParams, DotConstraints, ScenarioConfig,
                       dot_constraint_check, scenario_report, sweep,
                       sweep_parameters, process_tomography)
from .qstate import is_cptp, process_fidelity

_FORMATS = ("text", "csv", "json-like")
# the --format values each subcommand prints
_COMMAND_FORMATS = {"levels": _FORMATS, "run": _FORMATS, "sweep": _FORMATS,
                    "tomography": ("text", "json-like"), "check-dot": ("text",)}


def fmt6(x: float) -> str:
    """Fidelities and probabilities: fixed 6 decimals."""
    return f"{x:.6f}"


def fmt9(x: float) -> str:
    """Matrices and constants: 9 significant digits."""
    return f"{x:.9g}"


def _complex9(z: complex) -> str:
    """Choi entries (|z| <= 1): each part rounded to 12 decimals first, so
    round-off residues print as 0 (adding 0.0 turns -0.0 into 0.0)."""
    real, imag = round(float(z.real), 12) + 0.0, round(float(z.imag), 12) + 0.0
    return f"{real:.9g}{imag:+.9g}j"


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

class ConfigError(ValueError):
    pass


def _number(v, name: str) -> float:
    """A JSON number (integer or float); not a bool or a numeric string."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{name} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ConfigError(f"{name} is out of range, got {v!r}") from None


def _parse_amplitude(v) -> complex:
    if not isinstance(v, (list, tuple)):
        return complex(_number(v, "amplitude"))
    if len(v) == 2:
        return complex(_number(v[0], "amplitude"), _number(v[1], "amplitude"))
    raise ConfigError(f"amplitude must be a number or [re, im] pair, got {v!r}")


def _parse_qubit(v) -> tuple[complex, complex]:
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return _parse_amplitude(v[0]), _parse_amplitude(v[1])
    raise ConfigError(f"expected a pair of amplitudes, got {v!r}")


def _integer(v, name: str) -> int:
    """A JSON integer or an integral float such as 1e5; not a bool."""
    if isinstance(v, bool) or not (isinstance(v, int) or
                                   isinstance(v, float) and v.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {v!r}")
    return int(v)


def _boolean(v, name: str) -> bool:
    if isinstance(v, bool):
        return v
    raise ConfigError(f"{name} must be true or false, got {v!r}")


def _object(v, name: str) -> dict:
    if isinstance(v, dict):
        return v
    raise ConfigError(f"{name} must be a JSON object")


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig; all problems reported together."""
    _object(doc, "config")
    problems: list[str] = []

    def grab(builder, what=None):
        try:
            return builder()
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{what}: {exc}" if what else str(exc))
            return None

    def section(name, make):
        """make(doc[name]), doc[name] being {} when absent."""
        sdoc = doc.get(name, {})
        if not isinstance(sdoc, dict):
            problems.append(f"{name} must be a JSON object")
            return None
        return grab(lambda: make(sdoc), name)

    case = str(doc.get("case", CASE_A))
    material = INAS_GAAS_QW
    if "material" in doc:
        material = section("material", lambda mdoc: MaterialParams(
            name=str(mdoc.get("name", "custom")),
            g_cb=_number(mdoc["g_cb"], "g_cb"),
            g_lh=_number(mdoc["g_lh"], "g_lh"),
            g_hh_normal=_number(mdoc.get("g_hh_normal", 1.0), "g_hh_normal"),
            strain_splitting_uev=_number(mdoc["strain_splitting_ueV"],
                                         "strain_splitting_ueV"),
            band_gap_uev=_number(mdoc["band_gap_ueV"], "band_gap_ueV"),
            strain_sign=str(mdoc.get("strain_sign", TENSILE))))
    default_orientation = INPLANE if case == CASE_B else NORMAL
    fieldcfg = section("field", lambda fdoc: FieldConfig(
        b_tesla=_number(fdoc.get("b_tesla", 1.0), "b_tesla"),
        orientation=str(fdoc.get("orientation", default_orientation))))
    window = None
    if doc.get("window") is not None:
        window = section("window", lambda wdoc: SpectralWindow(
            bandwidth_uev=_number(wdoc["bandwidth_ueV"], "bandwidth_ueV"),
            center_offset_uev=_number(wdoc.get("center_offset_ueV", 0.0),
                                      "center_offset_ueV"),
            lineshape=str(wdoc.get("lineshape", "gaussian"))))
    noise = section("noise", lambda ndoc: NoiseModel(**{
        name: _number(ndoc.get(name, default), name) for name, default in (
            ("t2_iii_v_ns", 100.0), ("t2_si_ns", 5.0e5),
            ("transport_time_ns", 0.0), ("transport_dephasing_fraction", 0.0),
            ("transport_loss", 0.0))}))
    chain = section("chain", lambda cdoc: ChainParams(
        n_sites=_integer(cdoc.get("n_sites", 4), "n_sites"),
        storage_site=_integer(cdoc.get("storage_site", 3), "storage_site"),
        gate_error=_number(cdoc.get("gate_error", 0.0), "gate_error")))
    qdoc = doc.get("input_qubit", [[2 ** -0.5, 0.0], [2 ** -0.5, 0.0]])
    input_qubit = grab(lambda: _parse_qubit(qdoc), "input_qubit")
    direction = doc.get("emission_direction")
    if direction is not None:
        direction = grab(lambda: tuple(_number(x, "component") for x in direction),
                         "emission_direction")
    compensate = grab(lambda: _boolean(doc.get("compensate", True), "compensate"))
    seed = grab(lambda: _integer(doc.get("seed", 0), "seed"))
    mc_samples = grab(lambda: _integer(doc.get("mc_samples", 1000), "mc_samples"))
    storage_time, hadamard_time, efficiency = (
        grab(lambda: _number(doc.get(name, default), name))
        for name, default in (("storage_time_ns", 0.0), ("hadamard_time_ns", 0.0),
                              ("absorption_efficiency", 1.0)))

    if problems:
        raise ConfigError("; ".join(problems))

    cfg = ScenarioConfig(
        case=case,
        material=material,
        field=fieldcfg,
        window=window,
        noise=noise,
        chain=chain,
        compensate=compensate,
        storage_time_ns=storage_time,
        hadamard_time_ns=hadamard_time,
        emission_direction=direction,
        absorption_efficiency=efficiency,
        seed=seed,
        mc_samples=mc_samples,
        input_qubit=input_qubit,
    )
    problems = cfg.validate()
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def load_config(path: str | None, seed: int | None) -> ScenarioConfig:
    doc = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if seed is not None:
        doc = {**_object(doc, "config"), "seed": seed}
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write(out_path: str | None, text: str):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _choi_lines(choi: np.ndarray) -> list[str]:
    lines = ["choi:"]
    for row in choi:
        lines.append("  " + "  ".join(_complex9(z) for z in row))
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_levels(cfg: ScenarioConfig, fmt: str, out: str | None) -> int:
    scheme = cfg.scheme()
    rows = []
    for lv in scheme.valence_levels + scheme.conduction_levels:
        rows.append((lv.band, lv.label, lv.energy_uev))
    lines = [f"case: {scheme.case}", f"material: {cfg.material.name}",
             f"b_tesla: {fmt9(cfg.field.b_tesla)}",
             f"orientation: {cfg.field.orientation}", "levels:"]
    for band, label, e in rows:
        lines.append(f"  {band:11s} {label:12s} {fmt9(e):>15s} ueV")
    if cfg.field.b_tesla == 0:
        lines.append("warning: B = 0, Zeeman doublets are degenerate")
    if cfg.case != DEGENERATE:
        lines.append(f"valence_splitting_ueV: {fmt9(scheme.valence_splitting_uev)}")
        lines.append(f"conduction_splitting_ueV: {fmt9(scheme.conduction_splitting_uev)}")
        if cfg.window is not None and cfg.field.b_tesla > 0:
            rep = resolvability_check(cfg.window, cfg.material, cfg.field)
            lines += [
                f"valence_resolved: {str(rep.valence_resolved).lower()}",
                f"conduction_unresolved: {str(rep.conduction_unresolved).lower()}",
                f"window_within_strain: {str(rep.window_within_strain).lower()}",
                f"valence_margin_ueV: {fmt9(rep.valence_margin_uev)}",
                f"conduction_margin_ueV: {fmt9(rep.conduction_margin_uev)}",
            ]
    if fmt == "csv":
        csv_lines = ["band,label,energy_ueV"]
        csv_lines += [f"{band},{label},{fmt9(e)}" for band, label, e in rows]
        _write(out, "\n".join(csv_lines) + "\n")
    elif fmt == "json-like":
        _write(out, json.dumps({
            "case": scheme.case,
            "levels": [{"band": b, "label": l, "energy_ueV": e}
                       for b, l, e in rows]}, indent=2, sort_keys=True) + "\n")
    else:
        _write(out, "\n".join(lines) + "\n")
    return 0


def _report_text(rep) -> str:
    lines = [
        f"case: {rep.case}",
        f"seed: {rep.seed}",
        f"n_samples: {rep.n_samples}",
        f"round_trip_fidelity: {fmt6(rep.round_trip_fidelity)}",
        f"mean_fidelity: {fmt6(rep.mean_fidelity)} ± {fmt6(rep.stderr)}",
        f"success_probability: {fmt6(rep.success_probability)}",
        f"leakage: {fmt6(rep.leakage)}",
        f"hole_purity_mean: {fmt6(rep.hole_purity_mean)} ± {fmt6(rep.hole_purity_std)}",
        f"entanglement_entropy_bits: {fmt6(rep.entanglement_entropy_bits)}",
        f"collection_fraction: {fmt6(rep.collection_fraction)}",
        f"process_fidelity: {fmt6(rep.process_fidelity)}",
        f"cptp: {str(rep.cptp).lower()}",
        "stage_fidelities:",
    ]
    for st in rep.stages:
        lines.append(f"  {st.name:15s} fidelity={fmt6(st.fidelity)} "
                     f"success={fmt6(st.success)}")
    lines += _choi_lines(rep.choi)
    return "\n".join(lines) + "\n"


def _report_json(rep) -> str:
    doc = {
        "case": rep.case,
        "seed": rep.seed,
        "n_samples": rep.n_samples,
        "round_trip_fidelity": fmt6(rep.round_trip_fidelity),
        "mean_fidelity": fmt6(rep.mean_fidelity),
        "stderr": fmt6(rep.stderr),
        "success_probability": fmt6(rep.success_probability),
        "leakage": fmt6(rep.leakage),
        "hole_purity_mean": fmt6(rep.hole_purity_mean),
        "hole_purity_std": fmt6(rep.hole_purity_std),
        "entanglement_entropy_bits": fmt6(rep.entanglement_entropy_bits),
        "collection_fraction": fmt6(rep.collection_fraction),
        "process_fidelity": fmt6(rep.process_fidelity),
        "cptp": rep.cptp,
        "stages": [{"name": st.name, "fidelity": fmt6(st.fidelity),
                    "success": fmt6(st.success)} for st in rep.stages],
        "choi": [[_complex9(z) for z in row] for row in rep.choi],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_run(cfg: ScenarioConfig, fmt: str, out: str | None) -> int:
    rep = scenario_report(cfg)
    if fmt == "csv":
        lines = ["stage,fidelity,success"]
        lines += [f"{st.name},{fmt6(st.fidelity)},{fmt6(st.success)}"
                  for st in rep.stages]
        _write(out, "\n".join(lines) + "\n")
    elif fmt == "json-like":
        _write(out, _report_json(rep))
    else:
        _write(out, _report_text(rep))
    return 0


def cmd_sweep(cfg: ScenarioConfig, param: str, start: float, stop: float,
              steps: int, fmt: str, out: str | None) -> int:
    if steps < 0:
        raise ConfigError("steps must be non-negative")
    for flag, value in (("--from", start), ("--to", stop)):
        if not np.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    values = np.linspace(start, stop, steps)
    columns = {"param": str, "value": fmt9, "mean_fidelity": fmt6,
               "stderr": fmt6, "success_prob": fmt6, "leakage": fmt6,
               "hole_purity": fmt6}
    rows = [{name: show(r[name]) for name, show in columns.items()}
            for r in sweep(cfg, param, values)]
    if fmt == "json-like":
        _write(out, json.dumps(rows, indent=2, sort_keys=True) + "\n")
    else:
        lines = [",".join(columns)] + [",".join(r.values()) for r in rows]
        _write(out, "\n".join(lines) + "\n")
    return 0


def cmd_tomography(cfg: ScenarioConfig, fmt: str, out: str | None,
                   choi_file: str | None) -> int:
    if choi_file is not None:
        # hand-edited matrix verdict mode
        try:
            with open(choi_file, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            choi = np.array([[complex(c[0], c[1]) for c in row] for row in raw])
        except (OSError, json.JSONDecodeError, TypeError, IndexError,
                ValueError) as exc:
            raise ConfigError(f"cannot parse choi file {choi_file}: {exc}")
        if choi.shape != (4, 4) or not np.all(np.isfinite(choi)):
            raise ConfigError(f"choi file {choi_file} must hold a finite 4x4 "
                              "matrix of [re, im] pairs")
        cptp = is_cptp(choi, tol=1e-8, conditional=True)
        pf = process_fidelity(choi) if np.trace(choi).real > 0 else 0.0
    else:
        res = process_tomography(cfg)
        choi, cptp, pf = res.choi, res.cptp, res.process_fidelity
    if fmt == "json-like":
        _write(out, json.dumps({
            "choi": [[_complex9(z) for z in row] for row in choi],
            "cptp": cptp,
            "process_fidelity": fmt9(pf)},
            indent=2, sort_keys=True) + "\n")
    else:
        lines = _choi_lines(choi)
        lines.append(f"cptp: {str(cptp).lower()}")
        lines.append(f"process_fidelity: {fmt9(pf)}")
        _write(out, "\n".join(lines) + "\n")
    return 0


def cmd_check_dot(capacitance: float, resistance: float, confinement: float,
                  temperature: float, out: str | None) -> int:
    rep = dot_constraint_check(DotConstraints(
        capacitance_farad=capacitance,
        tunnel_resistance_ohm=resistance,
        confinement_energy_uev=confinement,
        temperature_k=temperature))
    lines = [
        f"charging    {'PASS' if rep.charging_ok else 'FAIL'}  "
        f"e2_over_C_ueV={fmt9(rep.charging_energy_uev)} kT_ueV={fmt9(rep.thermal_energy_uev)}",
        f"confinement {'PASS' if rep.confinement_ok else 'FAIL'}  "
        f"confinement_ueV={fmt9(rep.confinement_energy_uev)} kT_ueV={fmt9(rep.thermal_energy_uev)}",
        f"resistance  {'PASS' if rep.resistance_ok else 'FAIL'}  "
        f"R_ohm={fmt9(rep.tunnel_resistance_ohm)} threshold_ohm={fmt9(rep.resistance_threshold_ohm)}",
        f"note: {rep.note}",
    ]
    _write(out, "\n".join(lines) + "\n")
    return 0 if rep.all_ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# Flags that take a float.  argparse reads any token that starts with '-'
# and is not a plain negative number (so "-1e1", "-.5e1", "-inf") for an
# option; such a value is attached to its flag as "--flag=value" instead.
_FLOAT_FLAGS = frozenset({"--from", "--to", "--capacitance", "--resistance",
                          "--confinement", "--temperature"})


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_float_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _FLOAT_FLAGS and _is_float(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _build_parser() -> argparse.ArgumentParser:
    # global flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="path to a JSON scenario config")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the config seed")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write output to a file instead of stdout")
    common.add_argument("--format", choices=_FORMATS, default=argparse.SUPPRESS)

    # allow_abbrev=False everywhere: a flag is read by its full name only,
    # as _attach_float_values matches full names
    p = argparse.ArgumentParser(
        prog="polspin", parents=[common], allow_abbrev=False,
        description="Photon-polarization to electron-spin transfer simulator")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("levels", parents=[common], allow_abbrev=False,
                   help="print the level scheme and resolvability")
    sub.add_parser("run", parents=[common], allow_abbrev=False,
                   help="run the configured scenario end to end")

    sp = sub.add_parser("sweep", parents=[common], allow_abbrev=False,
                        help="sweep one numeric parameter")
    sp.add_argument("--param", required=True,
                    help=f"one of: {', '.join(sweep_parameters())}")
    sp.add_argument("--from", dest="start", type=float, required=True)
    sp.add_argument("--to", dest="stop", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)

    tp = sub.add_parser("tomography", parents=[common], allow_abbrev=False,
                        help="Choi matrix and CPTP verdict")
    tp.add_argument("--choi", dest="choi_file",
                    help="verdict mode: JSON 4x4 matrix of [re, im] pairs")

    dp = sub.add_parser("check-dot", parents=[common], allow_abbrev=False,
                        help="emitter quantum-dot constraints")
    dp.add_argument("--capacitance", type=float, required=True, metavar="FARAD")
    dp.add_argument("--resistance", type=float, required=True, metavar="OHM")
    dp.add_argument("--confinement", type=float, required=True, metavar="UEV")
    dp.add_argument("--temperature", type=float, required=True, metavar="KELVIN")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_float_values(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    config = getattr(args, "config", None)
    seed = getattr(args, "seed", None)
    out = getattr(args, "out", None)
    fmt = getattr(args, "format", "text")

    try:
        formats = _COMMAND_FORMATS[args.command]
        if fmt not in formats:
            raise ConfigError(f"{args.command} does not print --format {fmt} "
                              f"(it prints {', '.join(formats)})")
        if args.command == "check-dot":
            return cmd_check_dot(args.capacitance, args.resistance,
                                 args.confinement, args.temperature, out)
        cfg = load_config(config, seed)
        if args.command == "levels":
            return cmd_levels(cfg, fmt, out)
        if args.command == "run":
            return cmd_run(cfg, fmt, out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.param, args.start, args.stop,
                             args.steps, fmt, out)
        if args.command == "tomography":
            return cmd_tomography(cfg, fmt, out, args.choi_file)
        return 2
    except (ConfigError, KeyError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (PolspinError, ValueError) as exc:
        sys.stderr.write(f"scenario error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
