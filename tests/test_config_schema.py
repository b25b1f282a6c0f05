"""The config schema: every field of every config dataclass loads from its
JSON key, and a sweep sets the same field that the loader reads."""

import copy
import json
from dataclasses import fields, replace
from pathlib import Path

import pytest

from polspin.bands import FieldConfig, MaterialParams, SpectralWindow
from polspin.cli import config_from_dict
from polspin.noise import NoiseModel
from polspin.pipeline import (ChainParams, ScenarioConfig, _setter, json_key,
                              sweep_parameters)

README = Path(__file__).resolve().parent.parent / "README.md"

SECTIONS = {"material": MaterialParams, "field": FieldConfig,
            "window": SpectralWindow, "noise": NoiseModel, "chain": ChainParams}

# a config in which every value below is valid
BASE = {"case": "degenerate",
        "material": {"g_cb": 0.4, "g_lh": 8.87, "strain_splitting_ueV": 2e4,
                     "band_gap_ueV": 1.5e6},
        "window": {"bandwidth_ueV": 100.0}}

# (section, JSON key) -> a valid value other than the one BASE loads, as
# JSON and, where they differ, as loaded
VALUES = {
    ("", "case"): "B",
    ("", "compensate"): False,
    ("", "storage_time_ns"): 12.5,
    ("", "hadamard_time_ns"): 0.25,
    ("", "emission_direction"): ([0.0, 1.0, 1.0], (0.0, 1.0, 1.0)),
    ("", "absorption_efficiency"): 0.5,
    ("", "seed"): 9,
    ("", "mc_samples"): 17,
    ("", "input_qubit"): ([[0.0, 1.0], 0.0], (1j, 0j)),
    ("material", "name"): "GaAs-QW",
    ("material", "g_cb"): 0.5,
    ("material", "g_lh"): 9.5,
    ("material", "g_hh_normal"): 2.0,
    ("material", "strain_splitting_ueV"): 3e4,
    ("material", "band_gap_ueV"): 2e6,
    ("material", "strain_sign"): "compressive",
    ("field", "b_tesla"): 2.5,
    ("window", "bandwidth_ueV"): 250.0,
    ("window", "center_offset_ueV"): 30.0,
    ("window", "lineshape"): "lorentzian",
    ("noise", "t2_iii_v_ns"): 50.0,
    ("noise", "t2_si_ns"): 1e4,
    ("noise", "transport_time_ns"): 10.0,
    ("noise", "transport_dephasing_fraction"): 0.25,
    ("noise", "transport_loss"): 0.125,
    ("chain", "n_sites"): 6,
    ("chain", "storage_site"): 1,
    ("chain", "gate_error"): 0.01,
}


def _doc_with(section, key, value, base=BASE):
    doc = copy.deepcopy(base)
    (doc.setdefault(section, {}) if section else doc)[key] = value
    return doc


def _loaded(cfg, section, key):
    owner = getattr(cfg, section) if section else cfg
    name, = (f.name for f in fields(owner) if json_key(f.name) == key)
    return getattr(owner, name)


def test_values_cover_every_field():
    keys = {(section, json_key(f.name)) for section, cls in SECTIONS.items()
            for f in fields(cls)}
    keys |= {("", json_key(f.name)) for f in fields(ScenarioConfig)
             if f.name not in SECTIONS}
    assert keys == set(VALUES)


@pytest.mark.parametrize("section,key", sorted(VALUES))
def test_field_loads_from_its_key(section, key):
    value = VALUES[section, key]
    as_json, want = value if isinstance(value, tuple) else (value, value)
    assert _loaded(config_from_dict(BASE), section, key) != want
    cfg = config_from_dict(_doc_with(section, key, as_json))
    assert _loaded(cfg, section, key) == want


@pytest.mark.parametrize("param", sweep_parameters())
def test_sweep_sets_the_field_the_loader_reads(param):
    section, _, key = param.rpartition(".")
    v = float(VALUES[section, key])
    swept = _setter(config_from_dict(BASE), param)(v)
    assert swept == config_from_dict(_doc_with(section, key, v))


def test_bandwidth_sweep_without_window_loads_a_window():
    base = {k: v for k, v in BASE.items() if k != "window"}
    swept = _setter(config_from_dict(base), "window.bandwidth_ueV")(250.0)
    assert swept == config_from_dict(
        _doc_with("window", "bandwidth_ueV", 250.0, base))


def test_readme_config_example_is_the_defaults_but_the_fields_it_names():
    """README's config example loads, and differs from the defaults in
    exactly the fields its text names: window, transport_time_ns,
    hadamard_time_ns and seed."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```json\n") + len("```json\n")
    cfg = config_from_dict(json.loads(text[start:text.index("```", start)]))
    default = ScenarioConfig()
    named = {"window": cfg.window, "hadamard_time_ns": cfg.hadamard_time_ns,
             "seed": cfg.seed,
             "noise": replace(default.noise,
                              transport_time_ns=cfg.noise.transport_time_ns)}
    assert replace(default, **named) == cfg
    assert all(getattr(default, name) != value for name, value in named.items())
