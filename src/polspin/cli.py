"""Command-line front end.

Subcommands: levels, run, sweep, tomography, check-dot.  Configuration is a
JSON document whose keys are the config dataclasses' field names, physical
quantities unit-suffixed (b_tesla, bandwidth_ueV, storage_time_ns, ...);
an unknown key is refused.  Output is deterministic for a given (config,
seed): fixed decimal formatting, '.' radix, LF line endings.  Exit codes: 0 success, 2 usage/config error, 3 scenario error,
1 failed device-constraint check.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields

import numpy as np

from .bands import (CASE_B, DEGENERATE, FieldConfig, NORMAL, INPLANE,
                    MaterialParams, SpectralWindow, resolvability_check)
from .errors import PolspinError
from .noise import NoiseModel
from .pipeline import (ChainParams, DotConstraints, ScenarioConfig,
                       dot_constraint_check, json_key, scenario_report, sweep,
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


def _qubit(v, name: str) -> tuple[complex, complex]:
    """A pair of amplitudes, each a number or an [re, im] pair."""
    def amplitude(a) -> complex:
        if not isinstance(a, (list, tuple)):
            return complex(_number(a, f"{name}: amplitude"))
        if len(a) == 2:
            return complex(*(_number(x, f"{name}: amplitude") for x in a))
        raise ConfigError(f"{name}: amplitude must be a number or [re, im] "
                          f"pair, got {a!r}")

    if isinstance(v, (list, tuple)) and len(v) == 2:
        return amplitude(v[0]), amplitude(v[1])
    raise ConfigError(f"{name}: expected a pair of amplitudes, got {v!r}")


def _direction(v, name: str) -> tuple[float, ...] | None:
    if v is None:
        return None
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"{name} must be a list of numbers, got {v!r}")
    return tuple(_number(x, f"{name}: component") for x in v)


# config dataclass field annotation -> reader of its JSON value
_READERS = {"float": _number, "int": _integer, "bool": _boolean,
            "str": lambda v, name: str(v)}


def _build(cls, doc, where: str = "", **special):
    """A cls built from the JSON object doc.  Each field is read from the
    key json_key(name) by special[name], or else by the reader its
    annotation names; an absent key keeps the field's default, and a key
    that names no field is refused.  Every problem is reported together,
    each prefixed "<where>: " inside a section."""
    _object(doc, where or "config")
    prefix = f"{where}: " if where else ""
    by_key = {json_key(f.name): f for f in fields(cls)}
    problems, kwargs = [], {}
    for key, f in by_key.items():
        if key in doc:
            try:
                read = special.get(f.name) or _READERS[f.type]
                kwargs[f.name] = read(doc[key], key)
            except ValueError as exc:
                problems.append(prefix + str(exc))
        elif f.default is MISSING:
            problems.append(f"{prefix}missing key {key!r}")
    problems += [f"{prefix}unknown key {k!r}" for k in doc if k not in by_key]
    if not problems:
        try:
            return cls(**kwargs)
        except ValueError as exc:
            problems.append(prefix + str(exc))
    raise ConfigError("; ".join(problems))


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build and check a ScenarioConfig; all problems reported together.
    A `field` section without an orientation takes the case's: in-plane
    for case B, normal otherwise."""
    case_b = _object(doc, "config").get("case") == CASE_B

    def section(cls, **defaults):
        return lambda v, key: _build(cls, {**defaults, **_object(v, key)}, key)

    return _build(
        ScenarioConfig, {"field": {}, **doc},
        material=section(MaterialParams),
        field=section(FieldConfig, orientation=INPLANE if case_b else NORMAL),
        window=lambda v, key: None if v is None else section(SpectralWindow)(v, key),
        noise=section(NoiseModel), chain=section(ChainParams),
        input_qubit=_qubit, emission_direction=_direction)


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
