"""Property test over donor-chain configs, run through `polspin run`."""

import contextlib
import io
import json
import math

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
    figures = [float(rep[k]) for k in (
        "round_trip_fidelity", "mean_fidelity", "stderr", "success_probability",
        "leakage", "hole_purity_mean", "hole_purity_std",
        "entanglement_entropy_bits", "collection_fraction", "process_fidelity")]
    figures += [float(stage[k]) for stage in rep["stages"]
                for k in ("fidelity", "success")]
    assert all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in figures)
