import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stabapprox as sa
from stabapprox.targets import _enforce_tp_constraints
from helpers import matrices_close


def test_adc_zero_damping_is_identity():
    ch = sa.adc(sa.AdcSpec(0.0))
    assert matrices_close(sa.kraus_to_chi(ch).matrix, np.diag([2.0, 0, 0, 0]))


def test_adc_full_damping_kraus_ops():
    ch = sa.adc(sa.AdcSpec(1.0))
    assert matrices_close(ch.ops[0], np.array([[1, 0], [0, 0]]))
    assert matrices_close(ch.ops[1], np.array([[0, 1], [0, 0]]))


def test_adc_quarter_damping_identity_fidelity():
    # Direct evaluation of the fidelity sum for the two damping operators.
    got = sa.avg_fidelity(np.eye(2), sa.adc(sa.AdcSpec(0.25)))
    assert got == pytest.approx((1 + np.sqrt(0.75)) ** 2 / 4, abs=1e-12)
    assert got == pytest.approx(0.870512, abs=1e-6)


def test_adc_spec_validation():
    with pytest.raises(ValueError):
        sa.AdcSpec(-0.1)
    with pytest.raises(ValueError):
        sa.AdcSpec(1.1)


def test_pol_axis_aligned_cases():
    bit_flip = sa.pol_xy(sa.PolSpec(0.0, 0.3))
    assert matrices_close(bit_flip.ops[1], np.sqrt(0.3) * sa.PAULIS[1])
    y_flip = sa.pol_xy(sa.PolSpec(np.pi / 2, 0.3))
    assert matrices_close(y_flip.ops[1], np.sqrt(0.3) * sa.PAULIS[2], atol=1e-12)


def test_pol_spec_normalizes_angle_and_validates_p():
    assert sa.PolSpec(2 * np.pi + 0.25, 0.1).phi == pytest.approx(0.25)
    with pytest.raises(ValueError):
        sa.PolSpec(0.1, 1.5)


@pytest.mark.parametrize("phi", [np.nan, np.inf])
def test_pol_spec_rejects_non_finite_phi(phi):
    with pytest.raises(ValueError, match="phi must be finite"):
        sa.PolSpec(phi, 0.1)


@given(st.floats(0, 2 * np.pi), st.floats(0, 1))
@settings(max_examples=40, deadline=None)
def test_pol_is_unital(phi, p):
    out = sa.bloch_image(sa.pol_xy(sa.PolSpec(phi, p)), [0.0, 0.0, 0.0])
    assert np.max(np.abs(out)) <= 1e-12


def test_haar_unitary_is_unitary_and_deterministic():
    u1 = sa.haar_unitary(4, np.random.default_rng(42))
    u2 = sa.haar_unitary(4, np.random.default_rng(42))
    assert matrices_close(u1.conj().T @ u1, np.eye(4), atol=1e-12)
    assert matrices_close(u1, u2, atol=0.0)


def test_random_chi_is_valid_and_traces_to_two():
    for seed in range(12):
        chi = sa.random_chi(np.random.default_rng(seed))
        assert sa.validate_cptp(chi) == []
        assert abs(np.trace(chi.matrix) - 2.0) <= 1e-10


def test_random_chi_deterministic_per_seed():
    a = sa.random_chi(np.random.default_rng(123))
    b = sa.random_chi(np.random.default_rng(123))
    assert matrices_close(a.matrix, b.matrix, atol=0.0)


def test_random_chi_batch_uses_split_seeds():
    spec = sa.RandomChannelSpec(seed=77, count=4)
    batch = sa.random_chi_batch(spec)
    assert len(batch) == 4
    for i, chi in enumerate(batch):
        again = sa.random_chi(np.random.default_rng(77 + i))
        assert matrices_close(chi.matrix, again.matrix, atol=0.0)


def test_random_channel_spec_validation():
    with pytest.raises(ValueError):
        sa.RandomChannelSpec(seed=0, count=0)


def test_random_channel_spec_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
        sa.RandomChannelSpec(seed=-5, count=1)


@pytest.mark.parametrize("seed, count", [(1.5, 2), (1, 2.5), (1.0, 2), (True, 2), (1, True)])
def test_random_channel_spec_rejects_a_non_integer(seed, count):
    # Caught at construction, not later inside numpy's seeding or range().
    with pytest.raises(ValueError, match="must be an integer"):
        sa.RandomChannelSpec(seed=seed, count=count)


def test_random_channel_spec_accepts_numpy_integers():
    spec = sa.RandomChannelSpec(seed=np.int64(77), count=np.int32(2))
    assert len(sa.random_chi_batch(spec)) == 2


def test_generation_error_when_budget_exhausted():
    with pytest.raises(sa.GenerationError):
        sa.random_chi(np.random.default_rng(0), max_attempts=0)


def test_tp_projection_preserves_hermiticity_and_diagonal():
    rng = np.random.default_rng(9)
    for _ in range(25):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = z @ z.conj().T  # Hermitian PSD of trace whatever
        proj = _enforce_tp_constraints(m)
        assert matrices_close(proj, proj.conj().T, atol=0.0)
        assert np.allclose(np.diag(proj), np.diag(m))
        # the three constraints hold exactly after projection
        assert abs(proj[0, 1].real + proj[2, 3].imag) <= 1e-15
        assert abs(proj[0, 2].real - proj[1, 3].imag) <= 1e-15
        assert abs(proj[0, 3].real + proj[1, 2].imag) <= 1e-15
