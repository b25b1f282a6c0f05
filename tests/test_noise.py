import math

import numpy as np
import pytest

import polspin.qstate as qs
from polspin.noise import (NoiseModel, coherence_factor, dephasing_kraus,
                           transport_kraus)
from polspin.pipeline import ScenarioConfig, _transport, _storage
from polspin.qstate import (ELECTRON, choi_from_ptm, density_from_pauli,
                            is_cptp, ptm_from_kraus)

SQ2 = 1.0 / math.sqrt(2.0)


def plus():
    return qs.pure_state([SQ2, SQ2], (ELECTRON,))


def dephasing_ptm(t_ns, t2_ns):
    return ptm_from_kraus(dephasing_kraus(coherence_factor(t_ns, t2_ns)))


def apply_ptm(ptm, state):
    """The state R·c, c the Pauli vector of the input, as a density state."""
    c = np.einsum("iab,ba->i", qs.PAULIS, state.densitymatrix()).real
    return qs.density_state(density_from_pauli(ptm @ c), state.factors)


def dephased(state, t_ns, t2_ns):
    return apply_ptm(dephasing_ptm(t_ns, t2_ns), state)


def transport_ptm(noise):
    cfg = ScenarioConfig(noise=noise)
    return _transport(cfg, cfg.scheme()).ptm


def test_zero_time_identity():
    st = qs.pure_state([0.6, 0.8j], (ELECTRON,))
    out = dephased(st, 0.0, 100.0)
    assert np.allclose(out.amplitudes, st.densitymatrix(), atol=1e-14)


def test_plus_fidelity_at_t2():
    # analytic off-diagonal decay: F = (1 + e^{-1})/2
    out = dephased(plus(), 100.0, 100.0)
    want = (1.0 + math.exp(-1.0)) / 2.0
    assert qs.fidelity(plus(), out) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.683940, abs=1e-6)


def test_long_time_fully_dephased():
    out = dephased(plus(), 1e9, 1.0)
    assert np.allclose(out.amplitudes, np.eye(2) / 2, atol=1e-12)
    assert qs.fidelity(plus(), out) == pytest.approx(0.5, abs=1e-12)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        coherence_factor(-1.0, 100.0)


def test_populations_untouched():
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = rng.standard_normal(4)
        v = np.array([z[0] + 1j * z[1], z[2] + 1j * z[3]])
        v /= np.linalg.norm(v)
        st = qs.pure_state(v, (ELECTRON,))
        out = dephased(st, 37.0, 100.0)
        rho = st.densitymatrix()
        assert out.amplitudes[0, 0] == pytest.approx(rho[0, 0], abs=1e-12)
        assert out.amplitudes[1, 1] == pytest.approx(rho[1, 1], abs=1e-12)
        assert out.amplitudes[0, 1] == pytest.approx(
            rho[0, 1] * math.exp(-0.37), abs=1e-12)


def test_composition_law():
    t2 = 80.0
    a = dephasing_ptm(29.0, t2) @ dephasing_ptm(13.0, t2)
    assert np.max(np.abs(a - dephasing_ptm(42.0, t2))) < 1e-12
    a = dephased(dephased(plus(), 13.0, t2), 29.0, t2)
    b = dephased(plus(), 42.0, t2)
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12


def test_commutes_with_diagonal_unitaries():
    rng = np.random.default_rng(3)
    for _ in range(20):
        phi = rng.uniform(0, 2 * math.pi)
        u = np.diag([1.0, np.exp(1j * phi)])
        v = rng.standard_normal(4)
        vec = np.array([v[0] + 1j * v[1], v[2] + 1j * v[3]])
        vec /= np.linalg.norm(vec)
        st = qs.pure_state(vec, (ELECTRON,))
        a = dephased(st, 11.0, 100.0).amplitudes
        a = u @ a @ u.conj().T
        rotated = qs.density_state(u @ st.densitymatrix() @ u.conj().T, (ELECTRON,))
        b = dephased(rotated, 11.0, 100.0).amplitudes
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
    assert qs.fidelity(plus(), out) == pytest.approx(1.0, abs=1e-12)


def test_transport_low_noise_bound():
    r = transport_ptm(NoiseModel(transport_time_ns=1.0))   # t ≪ T2 = 100 ns
    out = apply_ptm(r, plus())
    assert np.trace(out.amplitudes).real == pytest.approx(1.0, abs=1e-12)
    assert qs.fidelity(plus(), out) > 0.99


def test_transport_at_t2():
    out = apply_ptm(transport_ptm(NoiseModel(transport_time_ns=100.0)), plus())
    assert qs.fidelity(plus(), out) == pytest.approx((1 + math.exp(-1)) / 2,
                                                     abs=1e-12)


def test_transport_total_loss_vacuum():
    # nothing arrives, whatever the input: the map is zero
    r = transport_ptm(NoiseModel(transport_loss=1.0))
    assert np.all(r == 0.0)


def test_transport_partial_loss_probability():
    r = transport_ptm(NoiseModel(transport_loss=0.25))
    c = r @ qs.pauli_vectors(np.array([[SQ2, SQ2]]))[:, 0]
    assert c[0] == pytest.approx(0.75)
    out = qs.density_state(density_from_pauli(c / c[0]), (ELECTRON,))
    assert qs.fidelity(plus(), out) == pytest.approx(1.0, abs=1e-12)


def test_transport_extra_dephasing_knob():
    out = apply_ptm(transport_ptm(NoiseModel(transport_dephasing_fraction=1.0)),
                    plus())
    assert np.allclose(out.amplitudes, np.eye(2) / 2, atol=1e-12)


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
