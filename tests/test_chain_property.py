"""Property tests over configs, run through `polspin run`: the `chain`
section, then the `noise`, `field` and `window` sections."""

import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from polspin.cli import main


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
    path = tmp_path_factory.getbasetemp() / "chain_property.json"
    path.write_text(json.dumps({"case": "A", "window": {"bandwidth_ueV": 100.0},
                                "mc_samples": 50, "chain": chain}),
                    encoding="utf-8")
    out = path.with_suffix(".out")
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(path), "--out", str(out), "run",
                     "--format", "json-like"])
    if not valid:
        assert code == 2
        assert err.getvalue().startswith("config error: chain: ")
        assert not out.exists()
        return
    assert err.getvalue() == ""
    assert code == 0
    rep = json.loads(out.read_text(encoding="utf-8"))
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
    path = tmp_path_factory.getbasetemp() / "section_property.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = path.with_suffix(".out")
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(path), "--out", str(out), "run",
                     "--format", "json-like"])
    if kind in ("bool", "string"):
        assert code == 2
        assert "must be a number, got " in err.getvalue()
    if code != 0:
        assert code in (2, 3) if kind else code == 3
        assert re.match(r"(config error: |scenario error: \w+: )\S",
                        err.getvalue())
        assert not out.exists()
        return
    assert err.getvalue() == ""
    _assert_unit_figures(json.loads(out.read_text(encoding="utf-8")))
