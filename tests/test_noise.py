import math

import numpy as np
import pytest

from polspin.noise import (NoiseModel, coherence_factor, dephasing_kraus,
                           transport_kraus)
from polspin.pipeline import ScenarioConfig, _transport, _storage
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
    return _transport(cfg, cfg.scheme()).ptm


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
        storage = _storage(ScenarioConfig(storage_time_ns=t), None).ptm
        assert is_cptp(choi_from_ptm(storage), tol=1e-10)


def test_dephasing_in_rotated_basis():
    # dephasing in the x eigenbasis keeps the x populations: |+> is a
    # fixed point of full dephasing there
    basis = np.array([[SQ2, SQ2], [SQ2, -SQ2]], dtype=complex)
    t2, _ = transport_kraus(NoiseModel(t2_iii_v_ns=1.0,
                                       transport_time_ns=1e9), basis)
    out = apply_ptm(ptm_from_kraus(t2), plus())
    assert plus_fidelity(out) == pytest.approx(1.0, abs=1e-12)


def test_transport_low_noise_bound():
    r = transport_ptm(NoiseModel(transport_time_ns=1.0))   # t ≪ T2 = 100 ns
    out = apply_ptm(r, plus())
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert plus_fidelity(out) > 0.99


def test_transport_at_t2():
    out = apply_ptm(transport_ptm(NoiseModel(transport_time_ns=100.0)), plus())
    assert plus_fidelity(out) == pytest.approx((1 + math.exp(-1)) / 2,
                                                     abs=1e-12)


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
