import math
from dataclasses import replace

import numpy as np
import pytest

from polspin.noise import NoiseModel, coherence_factor, dephasing_kraus
from polspin.bands import FieldConfig, INAS_GAAS_QW
from polspin.pipeline import ScenarioConfig, _Point, _STAGE_BUILDERS, _storage
from polspin.qstate import (PAULIS, choi_from_ptm, density_from_pauli, is_cptp,
                            pauli_vectors, ptm_from_kraus)

SQ2 = 1.0 / math.sqrt(2.0)
PLUS = np.array([SQ2, SQ2])


def plus():
    return np.outer(PLUS, PLUS)


def plus_fidelity(rho):
    """<+|rho|+>."""
    return float(np.real(PLUS @ rho @ PLUS))


def dephasing_ptm(t_ns, t2_ns):
    return ptm_from_kraus(dephasing_kraus(coherence_factor(t_ns, t2_ns)))


def apply_ptm(ptm, rho):
    """The density matrix of R·c, c the Pauli vector of rho."""
    c = np.einsum("iab,ba->i", PAULIS, rho).real
    return density_from_pauli(ptm @ c)


def dephased(state, t_ns, t2_ns):
    return apply_ptm(dephasing_ptm(t_ns, t2_ns), state)


def transport_ptm(noise):
    cfg = ScenarioConfig(noise=noise)
    return _STAGE_BUILDERS["transport"]([_Point(cfg, cfg.scheme())]).ptm


def test_zero_time_identity():
    v = np.array([0.6, 0.8j])
    rho = np.outer(v, v.conj())
    assert np.allclose(dephased(rho, 0.0, 100.0), rho, atol=1e-14)


def test_plus_fidelity_at_t2():
    # analytic off-diagonal decay: F = (1 + e^{-1})/2
    out = dephased(plus(), 100.0, 100.0)
    want = (1.0 + math.exp(-1.0)) / 2.0
    assert plus_fidelity(out) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.683940, abs=1e-6)


def test_long_time_fully_dephased():
    out = dephased(plus(), 1e9, 1.0)
    assert np.allclose(out, np.eye(2) / 2, atol=1e-12)
    assert plus_fidelity(out) == pytest.approx(0.5, abs=1e-12)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        coherence_factor(-1.0, 100.0)


def test_populations_untouched():
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = rng.standard_normal(4)
        v = np.array([z[0] + 1j * z[1], z[2] + 1j * z[3]])
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        out = dephased(rho, 37.0, 100.0)
        assert out[0, 0] == pytest.approx(rho[0, 0], abs=1e-12)
        assert out[1, 1] == pytest.approx(rho[1, 1], abs=1e-12)
        assert out[0, 1] == pytest.approx(
            rho[0, 1] * math.exp(-0.37), abs=1e-12)


def test_composition_law():
    t2 = 80.0
    a = dephasing_ptm(29.0, t2) @ dephasing_ptm(13.0, t2)
    assert np.max(np.abs(a - dephasing_ptm(42.0, t2))) < 1e-12
    a = dephased(dephased(plus(), 13.0, t2), 29.0, t2)
    b = dephased(plus(), 42.0, t2)
    assert np.max(np.abs(a - b)) < 1e-12


def test_commutes_with_diagonal_unitaries():
    rng = np.random.default_rng(3)
    for _ in range(20):
        phi = rng.uniform(0, 2 * math.pi)
        u = np.diag([1.0, np.exp(1j * phi)])
        v = rng.standard_normal(4)
        vec = np.array([v[0] + 1j * v[1], v[2] + 1j * v[3]])
        vec /= np.linalg.norm(vec)
        rho = np.outer(vec, vec.conj())
        a = u @ dephased(rho, 11.0, 100.0) @ u.conj().T
        b = dephased(u @ rho @ u.conj().T, 11.0, 100.0)
        assert np.max(np.abs(a - b)) < 1e-12
        # the same law on the transfer matrices
        ru = ptm_from_kraus([u])
        r = dephasing_ptm(11.0, 100.0)
        assert np.max(np.abs(ru @ r - r @ ru)) < 1e-12


def test_dephasing_is_cptp_for_all_times():
    for t in (0.0, 1.0, 50.0, 100.0, 1e4):
        assert is_cptp(choi_from_ptm(dephasing_ptm(t, 100.0)), tol=1e-10)
    for t in (0.0, 1e4, 1e9):
        storage = _storage([_Point(ScenarioConfig(storage_time_ns=t), None)]).ptm
        assert is_cptp(choi_from_ptm(storage), tol=1e-10)


def test_dephasing_in_rotated_basis():
    # case B's transport dephases in the x eigenbasis and keeps the x
    # populations: |+> is a fixed point of full dephasing there
    cfg = ScenarioConfig(case="B", noise=NoiseModel(transport_time_ns=1e9))
    r = _STAGE_BUILDERS["transport"]([_Point(cfg, cfg.scheme())]).ptm
    assert plus_fidelity(apply_ptm(r, plus())) == pytest.approx(1.0, abs=1e-12)


def test_transport_low_noise_bound():
    r = transport_ptm(NoiseModel(transport_time_ns=1.0))   # t ≪ T2 = 100 ns
    out = apply_ptm(r, plus())
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert plus_fidelity(out) > 0.99


def test_transport_at_t2():
    out = apply_ptm(transport_ptm(NoiseModel(transport_time_ns=100.0)), plus())
    assert plus_fidelity(out) == pytest.approx((1 + math.exp(-1)) / 2,
                                                     abs=1e-12)


TRANSPORT_NOISE = [NoiseModel(),
                   NoiseModel(transport_time_ns=10.0,
                              transport_dephasing_fraction=0.3,
                              transport_loss=0.2),
                   NoiseModel(transport_time_ns=250.0,
                              transport_dephasing_fraction=1.0),
                   NoiseModel(t2_iii_v_ns=40.0, transport_time_ns=7.5,
                              transport_dephasing_fraction=0.05,
                              transport_loss=0.9)]


@pytest.mark.parametrize("noise", TRANSPORT_NOISE, ids=repr)
@pytest.mark.parametrize("case,field", [("A", FieldConfig(1.0)),
                                        ("B", FieldConfig(1.0))])
def test_forward_transport_is_product_of_its_two_channels(case, field, noise):
    """The forward stage's one Kraus pair, of the product of the two
    survivals, is the fraction channel after the T2 channel, each in the
    energy eigenbasis; the return stage is the T2 channel alone."""
    cfg = ScenarioConfig(case=case, field=field, noise=noise)
    scheme = cfg.scheme()
    u = scheme.eigenbasis if case == "B" else np.eye(2)

    def rotated_ptm(gamma):
        return ptm_from_kraus([u @ k @ u.conj().T for k in dephasing_kraus(gamma)])

    t2 = rotated_ptm(coherence_factor(noise.transport_time_ns, noise.t2_iii_v_ns))
    fraction = rotated_ptm(1.0 - noise.transport_dephasing_fraction)
    keep = 1.0 - noise.transport_loss
    forward = _STAGE_BUILDERS["transport"]([_Point(cfg, scheme)]).ptm
    assert np.max(np.abs(forward - keep * fraction @ t2)) < 1e-15
    back = _STAGE_BUILDERS["transport_back"]([_Point(cfg, scheme)]).ptm
    assert np.max(np.abs(back - keep * t2)) < 1e-15


def _computational_transport_ptm(noise, forward):
    """A transport leg's PTM with its one Kraus pair left in the
    computational basis, unrotated."""
    gamma = coherence_factor(noise.transport_time_ns, noise.t2_iii_v_ns)
    if forward:
        gamma *= 1.0 - noise.transport_dephasing_fraction
    return (1.0 - noise.transport_loss) * ptm_from_kraus(dephasing_kraus(gamma))


@pytest.mark.parametrize("noise", TRANSPORT_NOISE, ids=repr)
@pytest.mark.parametrize("name", ["transport", "transport_back"])
@pytest.mark.parametrize("case,g_cb", [("A", 0.4), ("A", -0.4),
                                       ("degenerate", 0.4)])
def test_eigenbasis_transport_is_the_computational_one(case, g_cb, name, noise):
    """Case A's and the degenerate eigenbases are the mS states, swapped
    when g_cb < 0: dephasing in them is bit for bit the unrotated channel."""
    cfg = ScenarioConfig(case=case, noise=noise,
                         material=replace(INAS_GAAS_QW, g_cb=g_cb))
    stage = _STAGE_BUILDERS[name]([_Point(cfg, cfg.scheme())])
    assert np.array_equal(stage.ptm,
                          _computational_transport_ptm(noise, name == "transport"))


def test_transport_total_loss_vacuum():
    # nothing arrives, whatever the input: the map is zero
    r = transport_ptm(NoiseModel(transport_loss=1.0))
    assert np.all(r == 0.0)


def test_transport_partial_loss_probability():
    r = transport_ptm(NoiseModel(transport_loss=0.25))
    c = r @ pauli_vectors(np.array([[SQ2, SQ2]]))[:, 0]
    assert c[0] == pytest.approx(0.75)
    out = density_from_pauli(c / c[0])
    assert plus_fidelity(out) == pytest.approx(1.0, abs=1e-12)


def test_transport_extra_dephasing_knob():
    out = apply_ptm(transport_ptm(NoiseModel(transport_dephasing_fraction=1.0)),
                    plus())
    assert np.allclose(out, np.eye(2) / 2, atol=1e-12)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(t2_si_ns=0.0)
    with pytest.raises(ValueError):
        NoiseModel(transport_loss=1.5)
    nm = NoiseModel()
    assert nm.t2_iii_v_ns == 100.0
    assert nm.t2_si_ns == 5.0e5   # 0.5 ms


def test_coherence_factor():
    assert coherence_factor(0.0, 10.0) == 1.0
    assert coherence_factor(10.0, 10.0) == pytest.approx(math.exp(-1.0))
    assert dephasing_kraus(1.0)[1][0, 0] == 0.0


def test_dephasing_kraus_takes_arrays():
    """An array of survivals gives one Kraus pair per entry, each bit for
    bit the pair of that survival alone; an entry outside [0, 1] is
    refused."""
    gammas = [0.0, 0.3, 1.0]
    assert np.array_equal(dephasing_kraus(gammas),
                          np.array([dephasing_kraus(g) for g in gammas]))
    assert np.array_equal(dephasing_kraus([gammas, gammas[::-1]]),
                          np.array([[dephasing_kraus(g) for g in row]
                                    for row in (gammas, gammas[::-1])]))
    for bad in ([0.5, 1.5], [-0.1], 2.0):
        with pytest.raises(ValueError, match="gamma must lie in"):
            dephasing_kraus(bad)
