import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stabapprox as sa
from helpers import matrices_close


def probe_states():
    return [sa.density_from_bloch(r) for r in sa.PROBE_BLOCH]


def test_identity_chi_is_diag_2000():
    chi = sa.kraus_to_chi(sa.identity_channel())
    assert matrices_close(chi.matrix, np.diag([2.0, 0, 0, 0]))


def test_pure_pauli_x_chi():
    chi = sa.kraus_to_chi(sa.KrausChannel((sa.PAULIS[1],)))
    assert matrices_close(chi.matrix, np.diag([0, 2.0, 0, 0]))


def test_full_damping_chi_entries():
    # Oracle: apply both representations to the four probe states and match
    # the outputs entrywise; the entries below were frozen from that check.
    ch = sa.adc(sa.AdcSpec(1.0))
    chi = sa.kraus_to_chi(ch)
    for rho in probe_states():
        assert matrices_close(sa.apply_channel(ch, rho), sa.apply_chi(chi, rho))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = expected[0, 3] = expected[3, 0] = 0.5
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = -0.5j
    expected[2, 1] = 0.5j
    assert matrices_close(chi.matrix, expected)


def test_kraus_channel_rejects_incomplete_ops():
    with pytest.raises(ValueError, match="trace preserving"):
        sa.KrausChannel((0.5 * sa.PAULIS[0],))
    with pytest.raises(ValueError, match="at least one"):
        sa.KrausChannel(())


def test_kraus_channel_rejects_non_finite_ops():
    # The completeness test alone passes NaN: NaN > ATOL is false.
    bad = np.array(sa.PAULIS[1])
    bad[0, 1] = np.nan
    with pytest.raises(ValueError, match=r"Kraus operators \[1\] have non-finite"):
        sa.KrausChannel((sa.PAULIS[0], bad))


def test_apply_channel_identity_fixes_probes():
    ch = sa.identity_channel()
    for rho in probe_states():
        assert matrices_close(sa.apply_channel(ch, rho), rho)


@pytest.mark.parametrize("gamma", [0.0, 0.1, 0.25, 0.5, 0.9, 1.0])
def test_apply_channel_adc_on_excited_state(gamma):
    # Direct Kraus algebra: |1><1| -> gamma |0><0| + (1-gamma) |1><1|.
    rho = np.diag([0.0, 1.0]).astype(complex)
    out = sa.apply_channel(sa.adc(sa.AdcSpec(gamma)), rho)
    assert matrices_close(out, np.diag([gamma, 1.0 - gamma]))


def test_full_damping_maps_every_probe_to_ground_state():
    ch = sa.adc(sa.AdcSpec(1.0))
    ground = np.diag([1.0, 0.0]).astype(complex)
    for rho in probe_states():
        assert matrices_close(sa.apply_channel(ch, rho), ground)


def test_apply_channel_rejects_unphysical_density():
    # apply_chi checks its state as apply_channel does.
    for rho, match in [
        (np.diag([2.0, -1.0]), "positive semidefinite"),
        (np.array([[0.5, 1.0], [0.0, 0.5]]), "Hermitian"),
        (np.diag([0.5, 0.25]), "trace 1"),
        (np.eye(3) / 3.0, "must be 2x2"),
    ]:
        with pytest.raises(ValueError, match=match):
            sa.apply_channel(sa.identity_channel(), rho)
        with pytest.raises(ValueError, match=match):
            sa.apply_chi(sa.identity_chi(), rho)


def test_shape_errors():
    with pytest.raises(ValueError, match=r"process matrix must have shape \(4, 4\), got \(3, 3\)"):
        sa.ChiMatrix(np.eye(3))
    with pytest.raises(ValueError, match=r"Kraus operator must have shape \(2, 2\), got \(4,\)"):
        sa.KrausChannel((np.ones(4),))
    with pytest.raises(ValueError, match=r"Bloch vector must have shape \(3,\), got \(2,\)"):
        sa.density_from_bloch([1.0, 0.0])


def test_validate_cptp_accepts_adc():
    assert sa.validate_cptp(sa.kraus_to_chi(sa.adc(sa.AdcSpec(0.3)))) == []


def test_validate_cptp_flags_tp_violation():
    m = np.diag([2.0, 0, 0, 0]).astype(complex)
    m[0, 1] = 0.1
    m[1, 0] = 0.1
    report = sa.validate_cptp(sa.ChiMatrix(m))
    names = {v.constraint: v.magnitude for v in report}
    assert names["tp(01,23)"] == pytest.approx(0.1, abs=1e-12)
    assert "hermiticity" not in names and "trace" not in names


def test_validate_cptp_flags_negative_eigenvalue():
    # diag(3,-1,0,0) still has trace 2, so only positivity is violated.
    report = sa.validate_cptp(sa.ChiMatrix(np.diag([3.0, -1.0, 0, 0])))
    names = {v.constraint: v.magnitude for v in report}
    assert names == {"positivity": pytest.approx(1.0, abs=1e-12)}


def test_validate_cptp_flags_trace_and_hermiticity():
    m = np.diag([3.0, 0, 0, 0]).astype(complex)
    m[0, 1] = 0.2j  # not mirrored
    report = sa.validate_cptp(sa.ChiMatrix(m))
    names = {v.constraint for v in report}
    assert "trace" in names and "hermiticity" in names


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_cptp_reports_non_finite_entries(bad):
    # Reported as data, before any eigen-solve: none raises or warns.
    m = np.diag([2.0, 0, 0, 0]).astype(complex)
    m[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sa.validate_cptp(sa.ChiMatrix(m)) == [sa.CptpViolation("finite", 1.0)]
        with pytest.raises(ValueError, match="finite violated"):
            sa.solve(sa.ApproximationProblem(sa.ChiMatrix(m), "pc"))


def test_bloch_image_identity():
    assert np.allclose(sa.bloch_image(sa.identity_channel(), [0, 0, 1]), [0, 0, 1])


@pytest.mark.parametrize("gamma", [0.0, 0.25, 0.6, 1.0])
def test_bloch_image_adc_south_pole_and_origin(gamma):
    ch = sa.adc(sa.AdcSpec(gamma))
    assert np.allclose(sa.bloch_image(ch, [0, 0, -1]), [0, 0, 2 * gamma - 1], atol=1e-12)
    assert np.allclose(sa.bloch_image(ch, [0, 0, 0]), [0, 0, gamma], atol=1e-12)


def test_bloch_image_rejects_unphysical_input():
    with pytest.raises(ValueError, match="unit ball"):
        sa.bloch_image(sa.identity_channel(), [1.2, 0, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_states_are_rejected(bad):
    # NaN fails every comparison, so the norm, Hermiticity, trace and
    # positivity tests all let it through.
    with pytest.raises(ValueError, match="Bloch vector must be finite"):
        sa.density_from_bloch([bad, 0.0, 0.0])
    with pytest.raises(ValueError, match="Bloch vector must be finite"):
        sa.bloch_image(sa.identity_channel(), [0.0, bad, 0.0])
    rho = np.diag([1.0, 0.0]).astype(complex)
    rho[0, 1] = rho[1, 0] = bad
    with pytest.raises(ValueError, match="density matrix has non-finite entries"):
        sa.apply_channel(sa.identity_channel(), rho)
    with pytest.raises(ValueError, match="density matrix has non-finite entries"):
        sa.apply_chi(sa.identity_chi(), rho)


def test_unital_mixture_fixes_origin_adc_does_not():
    params = sa.MixtureParams("cc", np.full(23, 0.01))
    assert np.allclose(sa.bloch_image(sa.build_mixture(params), [0, 0, 0]), 0, atol=1e-12)
    assert abs(sa.bloch_image(sa.adc(sa.AdcSpec(0.4)), [0, 0, 0])[2]) > 0.1


def _all_reference_channels():
    chans = [sa.identity_channel(), sa.adc(sa.AdcSpec(0.37)), sa.pol_xy(sa.PolSpec(0.7, 0.2))]
    for gen in sa.enumerate_generators("cmc"):
        chans.append(sa.KrausChannel(gen.ops))
    return chans


def test_chi_round_trip_on_probe_states():
    # Channel action through the process matrix must agree with the Kraus
    # action on the informationally complete probe set.
    for ch in _all_reference_channels():
        chi = sa.kraus_to_chi(ch)
        for rho in probe_states():
            assert matrices_close(sa.apply_channel(ch, rho), sa.apply_chi(chi, rho))


def test_every_reference_chi_is_cptp():
    for ch in _all_reference_channels():
        assert sa.validate_cptp(sa.kraus_to_chi(ch)) == []


def test_chi_to_kraus_round_trip():
    for ch in (sa.adc(sa.AdcSpec(0.3)), sa.pol_xy(sa.PolSpec(1.1, 0.15))):
        chi = sa.kraus_to_chi(ch)
        rebuilt = sa.kraus_to_chi(sa.chi_to_kraus(chi))
        assert matrices_close(rebuilt.matrix, chi.matrix, atol=1e-12)


def test_kraus_to_chi_is_linear_in_mixture_probabilities():
    rng = np.random.default_rng(3)
    raw = rng.random(9)
    probs = 0.8 * raw / raw.sum()
    params = sa.MixtureParams("pmc", probs)
    chi = sa.kraus_to_chi(sa.build_mixture(params)).matrix
    expected = (1.0 - probs.sum()) * sa.identity_chi().matrix
    for p, gen in zip(probs, sa.enumerate_generators("pmc")):
        expected = expected + p * sa.kraus_to_chi(sa.KrausChannel(gen.ops)).matrix
    assert matrices_close(chi, expected, atol=1e-12)


@st.composite
def bloch_vectors(draw):
    v = np.array([draw(st.floats(-1, 1)) for _ in range(3)])
    norm = np.linalg.norm(v)
    if norm > 1.0:
        v = v / norm * draw(st.floats(0, 1))
    return v


@given(bloch_vectors(), st.floats(0, 1))
@settings(max_examples=50, deadline=None)
def test_channel_output_stays_in_bloch_ball(r, gamma):
    out = sa.bloch_image(sa.adc(sa.AdcSpec(gamma)), r)
    assert np.linalg.norm(out) <= 1.0 + 1e-10
