import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stabapprox as sa
from helpers import matches_mod_phase, matrices_close

EXPECTED_CC_LABELS = [
    "X", "Y", "Z",
    "S+x", "S-x", "S+y", "S-y", "S+z", "S-z",
    "H(x,y)+", "H(x,y)-", "H(x,z)+", "H(x,z)-", "H(y,z)+", "H(y,z)-",
    "F(+,+,+)", "F(+,+,-)", "F(+,-,+)", "F(+,-,-)",
    "F(-,+,+)", "F(-,+,-)", "F(-,-,+)", "F(-,-,-)",
]
EXPECTED_TRANSLATION_LABELS = ["T|0>", "T|1>", "T|+>", "T|->", "T|+i>", "T|-i>"]


@pytest.mark.parametrize(
    "model,count", [("pc", 3), ("pmc", 9), ("cc", 23), ("cmc", 29)]
)
def test_generator_counts(model, count):
    assert len(sa.enumerate_generators(model)) == count


def test_canonical_order_is_frozen():
    assert [g.label for g in sa.enumerate_generators("pc")] == EXPECTED_CC_LABELS[:3]
    assert [g.label for g in sa.enumerate_generators("cc")] == EXPECTED_CC_LABELS
    assert (
        [g.label for g in sa.enumerate_generators("cmc")]
        == EXPECTED_CC_LABELS + EXPECTED_TRANSLATION_LABELS
    )
    assert (
        [g.label for g in sa.enumerate_generators("pmc")]
        == EXPECTED_CC_LABELS[:3] + EXPECTED_TRANSLATION_LABELS
    )


def test_unknown_model_rejected():
    with pytest.raises(ValueError, match="unknown model"):
        sa.enumerate_generators("xyz")


def test_clifford_set_has_24_distinct_unitaries():
    unitaries = sa.clifford_unitaries()
    assert len(unitaries) == 24
    assert len({label for label, _ in unitaries}) == 24
    for _, u in unitaries:
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12
    # pairwise distinct modulo phase
    mats = [u for _, u in unitaries]
    for i in range(24):
        for j in range(i + 1, 24):
            assert not matches_mod_phase(mats[i], mats[j])


def test_clifford_group_closure_mod_phase():
    mats = [u for _, u in sa.clifford_unitaries()]
    for a in mats:
        for b in mats:
            prod = a @ b
            assert any(matches_mod_phase(prod, c) for c in mats)


def test_rotation_orders():
    paulis = [sa.PAULIS[i] for i in (1, 2, 3)]
    by_family = collections.defaultdict(list)
    for gen in sa.enumerate_generators("cc"):
        by_family[gen.family].append(gen.ops[0])
    for u in by_family["s"]:
        assert any(matches_mod_phase(u @ u, p) for p in paulis)
    for u in by_family["hadamard"]:
        assert matches_mod_phase(u @ u, np.eye(2))
    for u in by_family["face"]:
        assert matches_mod_phase(u @ u @ u, np.eye(2))


def test_translation_pairs_are_trace_preserving_channels():
    for gen in sa.enumerate_generators("pmc")[3:]:
        assert gen.family == "translation"
        assert len(gen.ops) == 2
        ch = sa.KrausChannel(gen.ops)  # validates sum K^dag K = I
        assert sa.validate_cptp(sa.kraus_to_chi(ch)) == []


def test_every_single_generator_channel_is_cptp():
    for gen in sa.enumerate_generators("cmc"):
        assert sa.validate_cptp(sa.kraus_to_chi(sa.KrausChannel(gen.ops))) == []


def test_fidelity_coefficients():
    coeffs = sa.identity_fidelity_coefficients("cmc")
    gens = sa.enumerate_generators("cmc")
    expected = {"pauli": 0.0, "s": 0.5, "hadamard": 0.0, "face": 0.25, "translation": 0.25}
    for gen, c in zip(gens, coeffs):
        assert c == expected[gen.family]
    assert np.all(sa.identity_fidelity_coefficients("pc") == 0.0)


@pytest.mark.parametrize("model", sa.MODELS)
def test_fidelity_coefficients_agree_with_process_matrices(model):
    # The catalog's exact coefficients are the constant term of each
    # generator's integrand, Re chi_00 / 2.
    from_chi = sa.generator_chis(model)[:, 0, 0].real / 2.0
    assert np.allclose(sa.identity_fidelity_coefficients(model), from_chi, rtol=0, atol=1e-15)


def test_mixture_params_validation():
    with pytest.raises(ValueError, match="negative"):
        sa.MixtureParams("pc", np.array([-0.1, 0.0, 0.0]))
    with pytest.raises(ValueError, match="> 1"):
        sa.MixtureParams("pc", np.array([0.5, 0.4, 0.3]))
    with pytest.raises(ValueError, match="takes 3"):
        sa.MixtureParams("pc", np.zeros(4))
    with pytest.raises(ValueError, match="non-finite"):
        sa.MixtureParams("pc", np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        sa.MixtureParams("pc", np.array([0.1, np.inf, 0.0]))


def test_zero_mixture_is_identity_channel():
    chi = sa.mixture_chi(sa.MixtureParams("pc", np.zeros(3)))
    assert matrices_close(chi.matrix, np.diag([2.0, 0, 0, 0]))


@pytest.mark.parametrize("p", [0.05, 0.3, 0.9])
def test_bit_flip_mixture_distance_to_identity(p):
    # Direct entrywise oracle: chi differs from the identity chi only in
    # the (0,0) and (1,1) entries, by -2p and +2p.
    chi = sa.mixture_chi(sa.MixtureParams("pc", np.array([p, 0, 0])))
    delta = chi.matrix - sa.identity_chi().matrix
    assert matrices_close(delta, np.diag([-2 * p, 2 * p, 0, 0]), atol=1e-12)
    assert sa.hs_distance(chi, sa.identity_chi()) == pytest.approx(p * p, abs=1e-12)


def test_measurement_only_mixture_kraus_set():
    p_m = 0.19
    probs = np.zeros(29)
    probs[23] = p_m  # T|0> is the first translation in the cmc order
    ch = sa.build_mixture(sa.MixtureParams("cmc", probs))
    expected = [
        np.sqrt(1 - p_m) * np.eye(2),
        np.sqrt(p_m) * np.array([[1, 0], [0, 0]]),
        np.sqrt(p_m) * np.array([[0, 1], [0, 0]]),
    ]
    assert len(ch.ops) == 3
    for op, want in zip(ch.ops, expected):
        assert matrices_close(op, want, atol=1e-12)


def test_mixture_chi_agrees_with_kraus_route():
    rng = np.random.default_rng(11)
    for model in sa.MODELS:
        n = len(sa.enumerate_generators(model))
        raw = rng.random(n)
        probs = 0.7 * raw / raw.sum()
        params = sa.MixtureParams(model, probs)
        direct = sa.kraus_to_chi(sa.build_mixture(params))
        assert matrices_close(sa.mixture_chi(params).matrix, direct.matrix, atol=1e-12)


def test_build_mixture_completeness():
    rng = np.random.default_rng(5)
    raw = rng.random(29)
    ch = sa.build_mixture(sa.MixtureParams("cmc", raw / raw.sum()))
    total = sum(k.conj().T @ k for k in ch.ops)
    assert matrices_close(total, np.eye(2), atol=1e-12)


def test_sample_error_degenerate_cases():
    rng = np.random.default_rng(0)
    params = sa.MixtureParams("pc", np.zeros(3))
    assert all(sa.sample_error(params, rng).label == "I" for _ in range(20))
    params = sa.MixtureParams("pc", np.array([1.0, 0, 0]))
    assert all(sa.sample_error(params, rng).label == "X" for _ in range(20))


def test_sample_error_reports_replacement_state():
    probs = np.zeros(9)
    probs[5] = 1.0  # T|+> in pmc order
    sample = sa.sample_error(sa.MixtureParams("pmc", probs), np.random.default_rng(1))
    assert sample.label == "T|+>"
    assert sample.replacement == "|+>"


def test_sample_error_frequencies_match_probabilities():
    # Statistical oracle: counts over 10^6 draws stay within 3 sigma
    # binomial bands of the exact probabilities (0.4, 0.1, 0.2, 0.3).
    n = 1_000_000
    params = sa.MixtureParams("pc", np.array([0.1, 0.2, 0.3]))
    labels = sa.sample_errors(params, np.random.default_rng(20260810), n)
    counts = collections.Counter(labels.tolist())
    for label, p in (("I", 0.4), ("X", 0.1), ("Y", 0.2), ("Z", 0.3)):
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(counts[label] - n * p) <= 3 * sigma


@st.composite
def mixture_probs(draw, model):
    n = len(sa.enumerate_generators(model))
    raw = np.array([draw(st.floats(0, 1)) for _ in range(n)])
    total = raw.sum()
    if total > 1.0:
        raw = raw / total * draw(st.floats(0, 1))
    return raw


@given(mixture_probs("pmc"))
@settings(max_examples=30, deadline=None)
def test_random_mixtures_are_cptp(probs):
    chi = sa.mixture_chi(sa.MixtureParams("pmc", probs))
    assert sa.validate_cptp(chi) == []
