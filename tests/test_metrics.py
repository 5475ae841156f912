import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stabapprox as sa
from helpers import fibonacci_sphere, overlap_sum, worst_fidelity_grid


def chi_of(ch):
    return sa.kraus_to_chi(ch)


def test_distance_of_identical_channels_is_zero():
    chi = sa.identity_chi()
    assert sa.hs_distance(chi, chi) == 0.0


def test_distance_of_orthogonal_channels_is_one():
    chi_x = chi_of(sa.KrausChannel((sa.PAULIS[1],)))
    assert sa.hs_distance(sa.identity_chi(), chi_x) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.01, 0.2, 0.77])
def test_distance_identity_to_bit_flip(p):
    # Entrywise oracle: the residual matrix is diag(-2p, 2p, 0, 0), whose
    # squared Frobenius norm over 8 is p^2.
    chi_flip = sa.mixture_chi(sa.MixtureParams("pc", np.array([p, 0, 0])))
    direct = np.sum(np.abs(chi_flip.matrix - sa.identity_chi().matrix) ** 2) / 8.0
    assert sa.hs_distance(sa.identity_chi(), chi_flip) == pytest.approx(direct, abs=1e-15)
    assert direct == pytest.approx(p * p, abs=1e-12)


def test_distance_is_symmetric_and_bounded_on_random_channels():
    targets = sa.random_chi_batch(sa.RandomChannelSpec(seed=5, count=8))
    for a in targets:
        for b in targets:
            d = sa.hs_distance(a, b)
            assert d == pytest.approx(sa.hs_distance(b, a), abs=1e-15)
            assert -1e-15 <= d <= 1.0 + 1e-12


def test_sqrt_distance_triangle_inequality():
    targets = sa.random_chi_batch(sa.RandomChannelSpec(seed=6, count=9))
    for a, b, c in zip(targets[::3], targets[1::3], targets[2::3]):
        lhs = np.sqrt(sa.hs_distance(a, c))
        rhs = np.sqrt(sa.hs_distance(a, b)) + np.sqrt(sa.hs_distance(b, c))
        assert lhs <= rhs + 1e-9


def test_avg_fidelity_identity_channel():
    assert sa.avg_fidelity(np.eye(2), sa.identity_channel()) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 0.99])
def test_avg_fidelity_adc_formula(gamma):
    got = sa.avg_fidelity(np.eye(2), sa.adc(sa.AdcSpec(gamma)))
    assert got == pytest.approx((1 + np.sqrt(1 - gamma)) ** 2 / 4, abs=1e-12)


def test_avg_fidelity_pauli_mixture_is_one_minus_total():
    probs = np.array([0.08, 0.11, 0.05])
    ch = sa.build_mixture(sa.MixtureParams("pc", probs))
    assert sa.avg_fidelity(np.eye(2), ch) == pytest.approx(1 - probs.sum(), abs=1e-12)


def test_avg_fidelity_rejects_non_unitary_reference():
    with pytest.raises(ValueError, match="unitary"):
        sa.avg_fidelity(np.diag([1.0, 0.5]), sa.identity_channel())
    with pytest.raises(ValueError, match="unitary"):
        sa.worst_fidelity(np.diag([1.0, 0.5]), sa.identity_channel())


def test_fidelities_reject_non_finite_reference():
    v = np.eye(2, dtype=complex)
    v[0, 1] = np.nan
    for fidelity in (sa.avg_fidelity, sa.worst_fidelity):
        with pytest.raises(ValueError, match="reference operator has non-finite entries"):
            fidelity(v, sa.identity_channel())


def test_fidelities_reject_a_reference_operator_that_is_not_2x2():
    with pytest.raises(ValueError, match=r"reference operator must be 2x2, got \(3, 3\)"):
        sa.worst_fidelity(np.eye(3), sa.identity_channel())


def test_min_quadratic_form_rejects_malformed_forms():
    nan_h, inf_g = np.eye(3), np.zeros(3)
    nan_h[0, 1] = nan_h[1, 0] = np.nan
    inf_g[2] = np.inf
    for h, g, c, match in [
        (np.eye(2), np.zeros(2), 0.0, "H must be 3x3"),
        (np.eye(3), np.zeros(4), 0.0, "g a 3-vector"),
        (nan_h, np.zeros(3), 0.0, "non-finite"),
        (np.eye(3), inf_g, 0.0, "non-finite"),
        (np.eye(3), np.zeros(3), np.nan, "non-finite"),
    ]:
        for domain in sa.metrics.WORST_DOMAINS:
            with pytest.raises(ValueError, match=match):
                sa.min_quadratic_form(h, g, c, domain=domain)


@st.composite
def small_mixture(draw):
    n = 23
    raw = np.array([draw(st.floats(0, 1)) for _ in range(n)])
    total = raw.sum()
    if total > 1.0:
        raw = raw / total * draw(st.floats(0, 1))
    return raw


@given(small_mixture())
@settings(max_examples=25, deadline=None)
def test_avg_fidelity_equals_linear_form_for_unitary_mixtures(probs):
    params = sa.MixtureParams("cc", probs)
    coeffs = sa.identity_fidelity_coefficients("cc")
    linear = (1.0 - probs.sum()) + float(coeffs @ probs)
    assert sa.avg_fidelity(np.eye(2), sa.build_mixture(params)) == pytest.approx(
        linear, abs=1e-12
    )


def random_channels(seed, count):
    targets = sa.random_chi_batch(sa.RandomChannelSpec(seed=seed, count=count))
    return [sa.chi_to_kraus(chi) for chi in targets]


def test_chi_fidelity_quadratic_against_direct_traces():
    # Independent oracle: sum_i |Tr(K_i rho(r))|^2 evaluated by plain
    # matrix algebra on random channels and random pure inputs.
    rng = np.random.default_rng(31)
    for ch in random_channels(seed=33, count=6) + [sa.adc(sa.AdcSpec(0.4))]:
        h, g, c = sa.chi_fidelity_quadratic(sa.kraus_to_chi(ch).matrix)
        v = sa.haar_unitary(2, rng)
        hv, gv, cv = sa.fidelity_quadratic(v, ch)
        for _ in range(10):
            r = rng.standard_normal(3)
            r /= np.linalg.norm(r)
            rho = sa.density_from_bloch(r)
            direct = sum(abs(np.trace(k @ rho)) ** 2 for k in ch.ops)
            assert r @ h @ r + 2 * g @ r + c == pytest.approx(direct, abs=1e-14)
            direct_v = sum(abs(np.trace(v.conj().T @ k @ rho)) ** 2 for k in ch.ops)
            assert r @ hv @ r + 2 * gv @ r + cv == pytest.approx(direct_v, abs=1e-14)


def test_fidelities_are_invariant_under_kraus_unitary_freedom():
    # K'_j = sum_i U_ji K_i is the same channel for any unitary U.
    rng = np.random.default_rng(37)
    for ch in random_channels(seed=39, count=5):
        ops = np.array(ch.ops + (np.zeros((2, 2)),))  # one spare operator
        u = sa.haar_unitary(len(ops), rng)
        mixed = sa.KrausChannel(tuple(np.tensordot(u, ops, axes=1)))
        for fidelity in (sa.avg_fidelity, sa.worst_fidelity):
            assert fidelity(np.eye(2), mixed) == pytest.approx(
                fidelity(np.eye(2), ch), abs=1e-12
            )


def test_fidelities_accept_reference_and_channel_each_within_atol():
    # V and the K_i each pass their own ATOL check; the products V^dag K_i
    # miss trace preservation by about twice that and must not be rejected.
    eps = 0.49 * sa.ATOL
    v = np.diag([1.0, 1.0 + eps])
    ch = sa.KrausChannel((np.diag([1.0, 1.0 + eps]),))
    exact = sa.KrausChannel((np.eye(2),))
    for fidelity in (sa.avg_fidelity, sa.worst_fidelity):
        assert fidelity(v, ch) == pytest.approx(fidelity(np.eye(2), exact), abs=1e-9)
    h, g, c = sa.fidelity_quadratic(v, ch)
    assert c == pytest.approx(1.0, abs=1e-9)


def test_worst_fidelity_identity_channel():
    assert sa.worst_fidelity(np.eye(2), sa.identity_channel()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("gamma", np.linspace(0.05, 0.95, 10))
def test_worst_fidelity_adc_against_grid_oracle(gamma):
    ch = sa.adc(sa.AdcSpec(gamma))
    got = sa.worst_fidelity(np.eye(2), ch)
    oracle = worst_fidelity_grid(np.eye(2), ch, pure=False)  # >= 10^4 ball points
    assert got == pytest.approx(1.0 - gamma, abs=1e-6)
    assert got == pytest.approx(oracle, abs=1e-6)


def test_worst_fidelity_adc_minimizer_is_excited_state():
    value, r = sa.worst_fidelity_point(np.eye(2), sa.adc(sa.AdcSpec(0.3)))
    assert value == pytest.approx(0.7, abs=1e-10)
    assert np.allclose(r, [0, 0, -1], atol=1e-6)


def test_worst_fidelity_pure_vs_mixed_domains():
    # For a Pauli mixture the ball minimum sits at the maximally mixed
    # state (value p0) while the sphere minimum is p0 + min(p).
    probs = np.array([0.2, 0.15, 0.1])
    ch = sa.build_mixture(sa.MixtureParams("pc", probs))
    assert sa.worst_fidelity(np.eye(2), ch, domain="mixed") == pytest.approx(
        1 - probs.sum(), abs=1e-10
    )
    assert sa.worst_fidelity(np.eye(2), ch, domain="pure") == pytest.approx(
        1 - probs.sum() + probs.min(), abs=1e-10
    )
    with pytest.raises(ValueError, match="domain"):
        sa.worst_fidelity(np.eye(2), ch, domain="everything")


def test_worst_fidelity_matches_sphere_grid_oracle_on_mixtures():
    rng = np.random.default_rng(17)
    for model in ("pmc", "cc"):
        n = len(sa.enumerate_generators(model))
        raw = rng.random(n)
        ch = sa.build_mixture(sa.MixtureParams(model, 0.6 * raw / raw.sum()))
        got = sa.worst_fidelity(np.eye(2), ch, domain="pure")
        oracle = worst_fidelity_grid(np.eye(2), ch, pure=True, n_dirs=12000)
        assert got == pytest.approx(oracle, abs=1e-7)


def test_worst_fidelity_lower_bounds_integrand_on_random_pure_states():
    ch = sa.adc(sa.AdcSpec(0.42))
    floor = sa.worst_fidelity(np.eye(2), ch, domain="pure")
    floor_mixed = sa.worst_fidelity(np.eye(2), ch, domain="mixed")
    rng = np.random.default_rng(2)
    dirs = rng.standard_normal((100, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vals = overlap_sum(np.eye(2), ch.ops, dirs)
    assert np.all(vals >= floor - 1e-12)
    radii = rng.random(100)[:, None]
    assert np.all(overlap_sum(np.eye(2), ch.ops, dirs * radii) >= floor_mixed - 1e-12)


def test_worst_fidelity_mixed_never_exceeds_pure():
    rng = np.random.default_rng(8)
    for _ in range(10):
        raw = rng.random(9)
        ch = sa.build_mixture(sa.MixtureParams("pmc", 0.8 * raw / raw.sum()))
        pure = sa.worst_fidelity(np.eye(2), ch, domain="pure")
        mixed = sa.worst_fidelity(np.eye(2), ch, domain="mixed")
        assert mixed <= pure + 1e-12


def test_min_quadratic_form_against_dense_grid():
    # Independent route for the closed-form minimizer: random convex
    # quadratics checked against a dense sphere/ball grid.
    rng = np.random.default_rng(4)
    dirs = fibonacci_sphere(20000)
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        h = a @ a.T
        y = rng.standard_normal(3)
        g = h @ y  # keep g in range(h)
        c = float(rng.random())
        val_sphere, r_sphere = sa.min_quadratic_form(h, g, c, domain="pure")
        grid_vals = np.einsum("ij,jk,ik->i", dirs, h, dirs) + 2 * dirs @ g + c
        assert val_sphere <= grid_vals.min() + 1e-6
        assert abs(np.linalg.norm(r_sphere) - 1.0) <= 1e-9
        val_ball, r_ball = sa.min_quadratic_form(h, g, c, domain="mixed")
        assert val_ball <= val_sphere + 1e-12
        assert np.linalg.norm(r_ball) <= 1.0 + 1e-9
        interior = -np.linalg.pinv(h) @ g
        if np.linalg.norm(interior) <= 1.0:
            expected = float(interior @ h @ interior + 2 * g @ interior + c)
            assert val_ball == pytest.approx(expected, abs=1e-9)


def test_min_quadratic_form_hard_case():
    # No forcing term on the bottom eigenspace: the sphere minimizer must
    # pick up a component inside it.
    h = np.diag([0.0, 1.0, 2.0])
    g = np.array([0.0, 0.3, 0.1])
    val, r = sa.min_quadratic_form(h, g, 0.5, domain="pure")
    dirs = fibonacci_sphere(40000)
    grid = np.einsum("ij,jk,ik->i", dirs, h, dirs) + 2 * dirs @ g + 0.5
    assert val <= grid.min() + 1e-6
    assert abs(np.linalg.norm(r) - 1.0) <= 1e-9


def test_min_quadratic_form_meets_the_global_optimality_conditions():
    # More & Sorensen: a unit r with (H + mu I) r + g = 0 and H + mu I >= 0
    # minimizes r.H.r + 2 g.r over the sphere; on the ball also mu >= 0, or
    # r is interior with H >= 0 and H r + g = 0.  Besides random forms, three
    # hard cases: b = 0 on the bottom eigenspace with the padded point
    # outside the sphere (a Newton start at mu = -lambda_0 divides 0/0
    # there), a bottom component at roundoff, and a doubled bottom eigenvalue.
    # Indefinite forms with g off their negative eigenvectors have a saddle
    # inside the ball that is no minimum; diag(-1, 1, 1) with g = 0 is one.
    rng = np.random.default_rng(53)
    forms = []
    for _ in range(500):
        a = rng.standard_normal((3, 3))
        forms.append((a @ a.T, rng.standard_normal(3) * 10 ** rng.uniform(-6, 1)))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    forms += [
        (np.diag([0.0, 1.0, 2.0]), np.array([0.0, 3.0, 0.0])),
        (np.diag([0.0, 1.0, 2.0]), np.array([1e-14, 0.3, 0.1])),
        (q @ np.diag([0.5, 0.5, 2.0]) @ q.T, q @ np.array([0.2, -0.4, 0.3])),
    ]
    for _ in range(200):
        a = rng.standard_normal((3, 3))
        lam, q = np.linalg.eigh(a + a.T)
        b = rng.standard_normal(3) * 10 ** rng.uniform(-6, 1)
        b[lam < 0] = 0.0
        forms.append((a + a.T, q @ b))
    forms.append((np.diag([-1.0, 1.0, 1.0]), np.zeros(3)))
    for h, g in forms:
        lam0 = np.linalg.eigvalsh(h)[0]
        sphere, r = sa.min_quadratic_form(h, g, 0.0, domain="pure")
        assert abs(np.linalg.norm(r) - 1.0) <= 1e-12
        mu = -float(r @ (h @ r + g))
        assert mu >= -lam0 - 1e-10
        assert np.linalg.norm((h + mu * np.eye(3)) @ r + g) <= 1e-10
        ball, r = sa.min_quadratic_form(h, g, 0.0, domain="mixed")
        assert ball <= sphere + 1e-12
        if np.linalg.norm(r) < 1.0 - 1e-12:
            assert lam0 >= -1e-10
            assert np.linalg.norm(h @ r + g) <= 1e-10
        else:
            mu = -float(r @ (h @ r + g))
            assert mu >= max(-lam0, 0.0) - 1e-10
            assert np.linalg.norm((h + mu * np.eye(3)) @ r + g) <= 1e-10
    assert ball == -1.0 and np.array_equal(np.abs(r), [1.0, 0.0, 0.0])


def test_min_quadratic_form_with_g_zero_is_the_secular_minimiser():
    # On the sphere with g = 0 the minimiser is read straight off eigh; it
    # must be the secular path's point (array_equal treats -0.0 as 0.0) and
    # value on random, sparse and tied-bottom forms and on pc's diagonal H.
    rng = np.random.default_rng(19)
    hs = sa.catalog.generator_quadratics("pc")[0]
    b = np.linalg.qr(rng.standard_normal((3, 3)))[0] * np.sqrt([0.5, 0.5, 2.0])
    forms = [b @ b.T, np.diag([0.0, 0.0, 1.0]), np.zeros((3, 3))]
    for _ in range(100):
        a = rng.standard_normal((3, 3))
        forms.append(a @ a.T)
        a[rng.random((3, 3)) < 0.6] = 0.0
        forms.append(a + a.T)
        forms.append(np.tensordot(rng.dirichlet(np.ones(3)) * (rng.random(3) < 0.7), hs, 1))
    for h in forms:
        for g in (np.zeros(3), np.array([-0.0, 0.0, -0.0])):
            c = float(rng.random())
            value, r = sa.min_quadratic_form(h, g, c, domain="pure")
            lam, q = np.linalg.eigh(h)
            expected = q @ sa.metrics._sphere_argmin(lam, q.T @ g)
            assert np.array_equal(r, expected)
            assert value == float(expected @ h @ expected + 2.0 * (g @ expected) + c)
