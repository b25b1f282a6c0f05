"""Command-line front end.

Subcommands: levels, run, sweep, tomography, check-dot.  Configuration is a
JSON document whose keys are the config dataclasses' field names, physical
quantities unit-suffixed (b_tesla, bandwidth_ueV, storage_time_ns, ...);
an unknown key is refused.  Output is deterministic for a given (config,
seed): fixed decimal formatting, '.' radix, LF line endings, written once,
to stdout or --out.  Exit codes: 0 success, 1 failed device-constraint
check, 2 usage or config error (an unwritable --out too), 3 scenario error.
`main` builds its argument parser once per process, on its first call, and
reuses it: the parser is built from constants only, and each parse returns
a fresh namespace.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, fields
from functools import cache, partial

import numpy as np

from .bands import (CASE_B, DEGENERATE, FieldConfig, MaterialParams,
                    SpectralWindow, resolvability_check)
from .errors import PolspinError
from .noise import NoiseModel
from .pipeline import (ChainParams, DotConstraints, ScenarioConfig,
                       choi_verdict, dot_constraint_check, json_key,
                       scenario_report, sweep, sweep_parameters,
                       process_tomography)

_FORMATS = ("text", "csv", "json-like")


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


def _choi_matrix(v, name: str) -> np.ndarray:
    """A 4x4 complex matrix written as four rows of four [re, im] pairs,
    each part a finite JSON number."""
    if not (isinstance(v, list) and len(v) == 4
            and all(isinstance(row, list) and len(row) == 4 for row in v)):
        raise ConfigError(f"{name} must hold a finite 4x4 matrix of "
                          "[re, im] pairs")
    choi = np.empty((4, 4), dtype=complex)
    for i, row in enumerate(v):
        for j, z in enumerate(row):
            entry = f"{name}: entry [{i}][{j}]"
            if not (isinstance(z, list) and len(z) == 2):
                raise ConfigError(f"{entry} must be an [re, im] pair, got {z!r}")
            real, imag = (_number(x, entry) for x in z)
            if not (math.isfinite(real) and math.isfinite(imag)):
                raise ConfigError(f"{entry} must be finite, got {z!r}")
            choi[i, j] = complex(real, imag)
    return choi


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
    """Build and check a ScenarioConfig; all problems reported together."""
    return _build(
        ScenarioConfig, doc,
        material=partial(_build, MaterialParams),
        field=partial(_build, FieldConfig),
        window=lambda v, key: None if v is None else _build(SpectralWindow, v, key),
        noise=partial(_build, NoiseModel), chain=partial(_build, ChainParams),
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
# subcommands: each takes (args, cfg, fmt) and returns the text it prints
# ---------------------------------------------------------------------------

def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _choi_lines(choi: np.ndarray) -> list[str]:
    return ["choi:"] + ["  " + "  ".join(_complex9(z) for z in row) for row in choi]


def cmd_levels(args, cfg: ScenarioConfig, fmt: str) -> str:
    scheme = cfg.scheme()
    rows = [(lv.band, lv.label, lv.energy_uev)
            for lv in scheme.valence_levels + scheme.conduction_levels]
    if fmt == "csv":
        return _text(["band,label,energy_ueV"]
                     + [f"{band},{label},{fmt9(e)}" for band, label, e in rows])
    if fmt == "json-like":
        return _json({"case": scheme.case,
                      "levels": [{"band": b, "label": l, "energy_ueV": e}
                                 for b, l, e in rows]})
    # the degenerate scheme is the zero-field reference whatever the config
    # asks, so the field shown is the scheme's own
    field = scheme.field
    lines = [f"case: {scheme.case}", f"material: {cfg.material.name}",
             f"b_tesla: {fmt9(field.b_tesla)}",
             # the case fixes the field's orientation
             "orientation: " + ("inplane" if scheme.case == CASE_B else "normal"),
             "levels:"]
    for band, label, e in rows:
        lines.append(f"  {band:11s} {label:12s} {fmt9(e):>15s} ueV")
    if field.b_tesla == 0:
        lines.append("warning: B = 0, Zeeman doublets are degenerate")
    if cfg.case != DEGENERATE:
        lines.append(f"valence_splitting_ueV: {fmt9(scheme.valence_splitting_uev)}")
        lines.append(f"conduction_splitting_ueV: {fmt9(scheme.conduction_splitting_uev)}")
        if cfg.window is not None and field.b_tesla > 0:
            rep = resolvability_check(cfg.window, cfg.material, field)
            lines += [
                f"valence_resolved: {str(rep.valence_resolved).lower()}",
                f"conduction_unresolved: {str(rep.conduction_unresolved).lower()}",
                f"window_within_strain: {str(rep.window_within_strain).lower()}",
                f"valence_margin_ueV: {fmt9(rep.valence_margin_uev)}",
                f"conduction_margin_ueV: {fmt9(rep.conduction_margin_uev)}",
            ]
    return _text(lines)


# a report's fixed-6 figures, in the order text prints them
_REPORT_FIGURES = ("round_trip_fidelity", "mean_fidelity", "stderr",
                   "success_probability", "leakage", "hole_purity_mean",
                   "hole_purity_std", "entanglement_entropy_bits",
                   "collection_fraction", "process_fidelity")
# text prints each of these on the line of the figure before it, as "± x"
_SPREADS = ("stderr", "hole_purity_std")


def cmd_run(args, cfg: ScenarioConfig, fmt: str) -> str:
    rep = scenario_report(cfg)
    stages = [(st.name, fmt6(st.fidelity), fmt6(st.success)) for st in rep.stages]
    if fmt == "csv":
        return _text(["stage,fidelity,success"] + [",".join(st) for st in stages])
    figures = {"case": rep.case, "seed": rep.seed, "n_samples": rep.n_samples}
    figures.update((name, fmt6(getattr(rep, name))) for name in _REPORT_FIGURES)
    if fmt == "json-like":
        return _json({**figures, "cptp": rep.cptp,
                      "stages": [dict(zip(("name", "fidelity", "success"), st))
                                 for st in stages],
                      "choi": [[_complex9(z) for z in row] for row in rep.choi]})
    lines = []
    for name, value in figures.items():
        if name in _SPREADS:
            lines[-1] += f" ± {value}"
        else:
            lines.append(f"{name}: {value}")
    lines += [f"cptp: {str(rep.cptp).lower()}", "stage_fidelities:"]
    lines += [f"  {name:15s} fidelity={fid} success={success}"
              for name, fid, success in stages]
    return _text(lines + _choi_lines(rep.choi))


def cmd_sweep(args, cfg: ScenarioConfig, fmt: str) -> str:
    if args.steps < 0:
        raise ConfigError("steps must be non-negative")
    for flag, value in (("--from", args.start), ("--to", args.stop)):
        if not np.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    values = np.linspace(args.start, args.stop, args.steps)
    columns = {"param": str, "value": fmt9, "mean_fidelity": fmt6,
               "stderr": fmt6, "success_prob": fmt6, "leakage": fmt6,
               "hole_purity": fmt6}
    rows = [{name: show(r[name]) for name, show in columns.items()}
            for r in sweep(cfg, args.param, values)]
    if fmt == "json-like":
        return _json(rows)
    return _text([",".join(columns)] + [",".join(r.values()) for r in rows])


def cmd_tomography(args, cfg: ScenarioConfig, fmt: str) -> str:
    if args.choi_file is not None:
        # hand-edited matrix verdict mode
        try:
            with open(args.choi_file, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot parse choi file {args.choi_file}: {exc}")
        res = choi_verdict(_choi_matrix(raw, f"choi file {args.choi_file}"))
    else:
        res = process_tomography(cfg)
    if fmt == "json-like":
        return _json({"choi": [[_complex9(z) for z in row] for row in res.choi],
                      "cptp": res.cptp,
                      "process_fidelity": fmt9(res.process_fidelity)})
    return _text(_choi_lines(res.choi) + [
        f"cptp: {str(res.cptp).lower()}",
        f"process_fidelity: {fmt9(res.process_fidelity)}"])


def cmd_check_dot(args, cfg, fmt: str) -> tuple[str, int]:
    """The verdict and its exit code, 1 if a condition fails; cfg is None."""
    rep = dot_constraint_check(DotConstraints(
        capacitance_farad=args.capacitance,
        tunnel_resistance_ohm=args.resistance,
        confinement_energy_uev=args.confinement,
        temperature_k=args.temperature))
    return _text([
        f"charging    {'PASS' if rep.charging_ok else 'FAIL'}  "
        f"e2_over_C_ueV={fmt9(rep.charging_energy_uev)} kT_ueV={fmt9(rep.thermal_energy_uev)}",
        f"confinement {'PASS' if rep.confinement_ok else 'FAIL'}  "
        f"confinement_ueV={fmt9(rep.confinement_energy_uev)} kT_ueV={fmt9(rep.thermal_energy_uev)}",
        f"resistance  {'PASS' if rep.resistance_ok else 'FAIL'}  "
        f"R_ohm={fmt9(rep.tunnel_resistance_ohm)} threshold_ohm={fmt9(rep.resistance_threshold_ohm)}",
        f"note: {rep.note}",
    ]), 0 if rep.all_ok else 1


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


@cache
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

    def command(name, handler, formats, help):
        """A subcommand: its handler and the --format values it prints."""
        sp = sub.add_parser(name, parents=[common], allow_abbrev=False, help=help)
        sp.set_defaults(handler=handler, formats=formats)
        return sp

    command("levels", cmd_levels, _FORMATS,
            "print the level scheme and resolvability")
    command("run", cmd_run, _FORMATS, "run the configured scenario end to end")

    sp = command("sweep", cmd_sweep, _FORMATS, "sweep one numeric parameter")
    sp.add_argument("--param", required=True,
                    help=f"one of: {', '.join(sweep_parameters())}")
    sp.add_argument("--from", dest="start", type=float, required=True)
    sp.add_argument("--to", dest="stop", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)

    tp = command("tomography", cmd_tomography, ("text", "json-like"),
                 "Choi matrix and CPTP verdict")
    tp.add_argument("--choi", dest="choi_file",
                    help="verdict mode: JSON 4x4 matrix of [re, im] pairs")

    dp = command("check-dot", cmd_check_dot, ("text",),
                 "emitter quantum-dot constraints")
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

    out = getattr(args, "out", None)
    fmt = getattr(args, "format", "text")
    try:
        if fmt not in args.formats:
            raise ConfigError(f"{args.command} does not print --format {fmt} "
                              f"(it prints {', '.join(args.formats)})")
        cfg = None if args.command == "check-dot" else load_config(
            getattr(args, "config", None), getattr(args, "seed", None))
        result = args.handler(args, cfg, fmt)
        text, code = result if isinstance(result, tuple) else (result, 0)
        if not out:
            sys.stdout.write(text)
            return code
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from None
        return code
    except (ConfigError, KeyError) as exc:
        # str() of a KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        sys.stderr.write(f"config error: {message}\n")
        return 2
    except (PolspinError, ValueError) as exc:
        sys.stderr.write(f"scenario error: {type(exc).__name__}: {exc}\n")
        return 3
    except MemoryError as exc:
        # an mc_samples or --steps too large to allocate; numpy raises a
        # private subclass, so the builtin is named
        sys.stderr.write(f"scenario error: MemoryError: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
