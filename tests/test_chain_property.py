"""Property tests over configs, run through `polspin run`: the `chain`
section; the `noise`, `field` and `window` sections; the `material`
section with the top-level scalars; and unknown keys at any level."""

import contextlib
import io
import json
import math
import re
import string
from dataclasses import fields

import pytest
from hypothesis import assume, given, settings, strategies as st

from polspin.bands import (FieldConfig, MaterialParams, SpectralWindow,
                           zeeman_splitting)
from polspin.cli import main
from polspin.noise import NoiseModel
from polspin.pipeline import ChainParams, ScenarioConfig, json_key


def _run(tmp_path_factory, name, doc):
    """(exit code, stderr, parsed json-like report or None) of `polspin run`
    on the config doc."""
    path = tmp_path_factory.getbasetemp() / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = path.with_suffix(".out")
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(path), "--out", str(out), "run",
                     "--format", "json-like"])
    rep = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
    return code, err.getvalue(), rep


@st.composite
def chain_docs(draw):
    """A `chain` section: n_sites 1-64, a valid storage site, gate_error in
    [0, 1]; or, half of the time, the same with one field out of range."""
    n = draw(st.integers(1, 64))
    doc = {"n_sites": n, "storage_site": draw(st.integers(0, n - 1)),
           "gate_error": draw(st.floats(0.0, 1.0))}
    bad = draw(st.sampled_from([None, "n_sites", "storage_site", "gate_error"]))
    if bad == "n_sites":
        doc["n_sites"] = draw(st.integers(-3, 0))
    elif bad == "storage_site":
        doc["storage_site"] = draw(st.one_of(st.integers(-5, -1),
                                             st.integers(n, n + 5)))
    elif bad == "gate_error":
        doc["gate_error"] = draw(st.one_of(
            st.floats(max_value=0.0, exclude_max=True, allow_nan=False),
            st.floats(min_value=1.0, exclude_min=True, allow_nan=False)))
    return doc, bad is None


@settings(max_examples=50, deadline=None)
@given(chain_docs())
def test_chain_config_reports_or_is_refused(tmp_path_factory, case):
    chain, valid = case
    code, err, rep = _run(tmp_path_factory, "chain_property", {
        "case": "A", "window": {"bandwidth_ueV": 100.0}, "mc_samples": 50,
        "chain": chain})
    if not valid:
        assert code == 2
        assert err.startswith("config error: chain: ")
        assert rep is None
        return
    assert err == ""
    assert code == 0
    assert rep["cptp"] is True
    _assert_unit_figures(rep)


def _assert_unit_figures(rep):
    """Every printed figure of a `run` report is finite and in [0, 1]."""
    figures = [float(rep[k]) for k in (
        "round_trip_fidelity", "mean_fidelity", "stderr", "success_probability",
        "leakage", "hole_purity_mean", "hole_purity_std",
        "entanglement_entropy_bits", "collection_fraction", "process_fidelity")]
    figures += [float(stage[k]) for stage in rep["stages"]
                for k in ("fidelity", "success")]
    assert all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in figures)


def _out_of_unit_interval():
    return st.one_of(st.floats(max_value=0.0, exclude_max=True, allow_nan=False),
                     st.floats(min_value=1.0, exclude_min=True, allow_nan=False))


# section -> field -> (valid values, out-of-range values).  An out-of-range
# value need not be refused (B = 0 is valid in the degenerate case), but it
# must never give a figure outside [0, 1].
FLOAT_FIELDS = {
    "noise": {
        "t2_iii_v_ns": (st.floats(1.0, 1e6), st.floats(max_value=0.0, allow_nan=False)),
        "t2_si_ns": (st.floats(1.0, 1e9), st.floats(max_value=0.0, allow_nan=False)),
        "transport_time_ns": (st.floats(0.0, 1e4), st.floats(
            max_value=0.0, exclude_max=True, allow_nan=False)),
        "transport_dephasing_fraction": (st.floats(0.0, 1.0), _out_of_unit_interval()),
        "transport_loss": (st.floats(0.0, 1.0), _out_of_unit_interval()),
    },
    "field": {
        "b_tesla": (st.floats(0.01, 1e4), st.one_of(
            st.floats(max_value=0.0, allow_nan=False),
            st.sampled_from([math.inf, math.nan]))),
    },
    "window": {
        "bandwidth_ueV": (st.floats(1.0, 1e5), st.floats(max_value=0.0, allow_nan=False)),
        "center_offset_ueV": (st.floats(-1e4, 1e4),
                              st.sampled_from([math.inf, -math.inf, math.nan])),
    },
}


@st.composite
def section_docs(draw):
    """A case and one `noise`, `field` or `window` section with valid values
    but, most of the time, one field out of range, a JSON boolean, or a
    numeric string.  Returns (config, kind of the bad field or None)."""
    case = draw(st.sampled_from(["A", "B", "degenerate"]))
    name = draw(st.sampled_from(sorted(FLOAT_FIELDS)))
    fields = FLOAT_FIELDS[name]
    section = {key: draw(valid) for key, (valid, _) in fields.items()}
    bad = draw(st.sampled_from([None, *sorted(fields)]))
    kind = None
    if bad is not None:
        kind = draw(st.sampled_from(["range", "bool", "string"]))
        valid, out_of_range = fields[bad]
        section[bad] = draw({"range": out_of_range, "bool": st.booleans(),
                             "string": st.one_of(valid, out_of_range).map(str)}[kind])
    return {"case": case, "mc_samples": 50, "hadamard_time_ns": 0.17862,
            "window": {"bandwidth_ueV": 100.0}, name: section}, kind


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(section_docs())
def test_section_config_reports_or_is_refused(tmp_path_factory, case):
    doc, kind = case
    code, err, rep = _run(tmp_path_factory, "section_property", doc)
    if kind in ("bool", "string"):
        assert code == 2
        assert "must be a number, got " in err
    if code != 0:
        assert code in (2, 3) if kind else code == 3
        assert re.match(r"(config error: |scenario error: \w+: )\S", err)
        assert rep is None
        return
    assert err == ""
    _assert_unit_figures(rep)


def _non_finite():
    return st.sampled_from([math.inf, -math.inf, math.nan])


# JSON key -> (valid values, out-of-range values), for the `material`
# section and the numeric top-level fields.  The valid ranges keep a
# 100 ueV window coupling, so a valid config always reports.
MATERIAL_FIELDS = {
    "g_cb": (st.floats(0.0, 1.0), _non_finite()),
    "g_lh": (st.floats(1.0, 20.0), _non_finite()),
    "g_hh_normal": (st.floats(-5.0, 5.0), _non_finite()),
    "strain_splitting_ueV": (st.floats(1e3, 1e5),
                             st.floats(max_value=0.0, allow_nan=False)),
}
SCALAR_FIELDS = {
    "storage_time_ns": (st.floats(0.0, 1e6), st.one_of(st.floats(
        max_value=0.0, exclude_max=True, allow_nan=False), _non_finite())),
    "hadamard_time_ns": (st.floats(0.0, 10.0), st.one_of(st.floats(
        max_value=0.0, exclude_max=True, allow_nan=False), _non_finite())),
    "absorption_efficiency": (st.floats(0.01, 1.0), _out_of_unit_interval()),
    "seed": (st.integers(0, 2 ** 64 - 1),
             st.one_of(st.integers(max_value=-1), st.integers(min_value=2 ** 64))),
    "mc_samples": (st.integers(1, 100), st.integers(max_value=0)),
}


@st.composite
def valid_docs(draw):
    """A config whose `material` section and top-level scalars are drawn
    from their valid ranges."""
    return {"case": draw(st.sampled_from(["A", "B", "degenerate"])),
            "compensate": draw(st.booleans()),
            "window": {"bandwidth_ueV": 100.0},
            "material": {key: draw(valid)
                         for key, (valid, _) in MATERIAL_FIELDS.items()},
            **{key: draw(valid) for key, (valid, _) in SCALAR_FIELDS.items()}}


@st.composite
def material_and_scalar_docs(draw):
    """A valid config, or, most of the time, one with a material field or a
    numeric top-level field out of range, a JSON boolean or a numeric
    string.  Returns (config, bad key or None, kind of the bad value)."""
    doc = draw(valid_docs())
    bad = draw(st.sampled_from([None, *sorted(SCALAR_FIELDS),
                                *(f"material.{key}" for key in MATERIAL_FIELDS)]))
    if bad is None:
        return doc, None, None
    section, _, key = bad.rpartition(".")
    valid, out_of_range = (MATERIAL_FIELDS if section else SCALAR_FIELDS)[key]
    kind = draw(st.sampled_from(["range", "bool", "string"]))
    (doc[section] if section else doc)[key] = draw(
        {"range": out_of_range, "bool": st.booleans(),
         "string": st.one_of(valid, out_of_range).map(str)}[kind])
    return doc, key, kind


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(material_and_scalar_docs())
def test_material_and_scalar_config_reports_or_is_refused(tmp_path_factory, case):
    doc, key, kind = case
    code, err, rep = _run(tmp_path_factory, "material_property", doc)
    if key is None:
        assert (code, err) == (0, "")
        _assert_unit_figures(rep)
        return
    assert code in (2, 3) and rep is None
    assert re.match(r"(config error: |scenario error: \w+: )\S", err)
    if kind != "range":
        assert code == 2
        assert f"{key} must be a" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["A", "B"]), st.floats(-1.0, 1.0), st.floats(1.0, 5.0),
       st.floats(1.0, 300.0), st.floats(0.1, 10.0))
def test_low_strain_heavy_hole_on_top_is_refused(tmp_path_factory, case, g_lh,
                                                 g_hh, strain, b):
    """g_lh below g_hh_normal at a weak strain: where case A's field lifts
    the heavy hole mJ=+3/2 above the light-hole doublet the config is
    refused, exit 3; case B's in-plane heavy-hole g-factor is 0, so it
    never is.  Else a g_lh <= 0, whose light hole on top is not the one
    the case's frame takes, is refused, exit 3, and every config not
    refused reports unit figures."""
    doc = {"case": case, "field": {"b_tesla": b},
           "window": {"bandwidth_ueV": 100.0}, "mc_samples": 50,
           "material": {"g_cb": 0.4, "g_lh": g_lh, "g_hh_normal": g_hh,
                        "strain_splitting_ueV": strain}}
    code, err, rep = _run(tmp_path_factory, "low_strain_property", doc)
    heavy = -strain + abs(zeeman_splitting(g_hh, b)) / 2.0
    if case == "A" and heavy > abs(zeeman_splitting(g_lh, b)) / 2.0:
        assert (code, rep) == (3, None)
        assert err.startswith("scenario error: HeavyHoleTopmost: hh mJ=+3/2 ")
        return
    if g_lh <= 0:
        assert (code, rep) == (3, None)
        assert err.startswith(f"scenario error: ValueError: case {case} needs "
                              "g_lh > 0")
        return
    assert (code, err) == (0, "")
    _assert_unit_figures(rep)


SECTION_KEYS = {"": ScenarioConfig, "material": MaterialParams,
                "field": FieldConfig, "window": SpectralWindow,
                "noise": NoiseModel, "chain": ChainParams}


@settings(max_examples=100, deadline=None)
@given(valid_docs(), st.sampled_from(sorted(SECTION_KEYS)),
       st.text(string.ascii_letters + "_", min_size=1, max_size=20),
       st.one_of(st.floats(allow_nan=False), st.booleans(), st.text(max_size=5)))
def test_unknown_key_is_refused(tmp_path_factory, doc, where, key, value):
    assume(key not in {json_key(f.name) for f in fields(SECTION_KEYS[where])})
    (doc.setdefault(where, {}) if where else doc)[key] = value
    code, err, rep = _run(tmp_path_factory, "unknown_key", doc)
    assert (code, rep) == (2, None)
    prefix = f"{where}: " if where else ""
    assert err == f"config error: {prefix}unknown key {key!r}\n"
