"""Exact pointwise algebra: wedge, star, bracket, twist."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pchgrav import fiber
from pchgrav.fiber import EUCLIDEAN, LORENTZIAN, PAIR_INDEX, PAIRS, wedge_comps

RNG = np.random.Generator(np.random.Philox(key=101))


# --- independent oracles -----------------------------------------------------

def eps4_oracle(i, j, k, l):
    perm = (i, j, k, l)
    if len(set(perm)) < 4:
        return 0
    sign = 1
    p = list(perm)
    for a in range(4):
        for b in range(a + 1, 4):
            if p[a] > p[b]:
                sign = -sign
    return sign


def star_oracle(b, eta):
    """Direct epsilon-sum: star(u_i^u_j) = 1/2 eps_{ijkl} eta^{km} eta^{ln} u_m^u_n."""
    out = np.zeros(6)
    for I, (i, j) in enumerate(PAIRS):
        if b[I] == 0:
            continue
        for k in range(4):
            for l in range(4):
                e = eps4_oracle(i, j, k, l)
                if not e:
                    continue
                coef = 0.5 * e / (eta[k] * eta[l]) * b[I]
                if k < l:
                    out[PAIRS.index((k, l))] += coef
                else:
                    out[PAIRS.index((l, k))] -= coef
    return out


def matrix_oracle(b, eta):
    """Bivector as a matrix acting on vectors: M^i_j = b^{ik} eta_kj."""
    B = np.zeros((4, 4))
    for I, (i, j) in enumerate(PAIRS):
        B[i, j] += b[I]
        B[j, i] -= b[I]
    return B * np.asarray(eta)[None, :]


def bracket_oracle(a, b, eta):
    """Commute the 4x4 matrices, map back to bivector components."""
    Ma, Mb = matrix_oracle(a, eta), matrix_oracle(b, eta)
    C = Ma @ Mb - Mb @ Ma
    Braw = C / np.asarray(eta)[None, :]   # raise the lowered index back
    return np.array([Braw[i, j] for (i, j) in PAIRS])


# --- wedge -------------------------------------------------------------------

def test_wedge_antisymmetry_on_vectors():
    u = np.eye(4)
    assert np.all(wedge_comps(1, 1, u[0], u[0]) == 0)
    b = wedge_comps(1, 1, u[0], u[1])
    expect = np.zeros(6)
    expect[PAIRS.index((0, 1))] = 1
    assert np.array_equal(b, expect)


def test_wedge_top_form_convention():
    b = np.eye(6)
    top = wedge_comps(2, 2, b[PAIR_INDEX[(0, 1)]], b[PAIR_INDEX[(2, 3)]])
    assert top.shape == (fiber.GRADE_DIMS[4],)
    assert fiber.tr_quad(top) == 1.0   # eps_{1234} = +1


def test_wedge_grade_overflow():
    with pytest.raises(ValueError, match="grade exceeds 4"):
        wedge_comps(3, 2, np.ones(4), np.ones(6))


@pytest.mark.parametrize("k,m", [(k, m) for k in range(1, 4) for m in range(1, 4) if k + m <= 4])
def test_wedge_graded_anticommutativity(k, m):
    for _ in range(25):
        a = RNG.normal(size=fiber.GRADE_DIMS[k])
        b = RNG.normal(size=fiber.GRADE_DIMS[m])
        ab = fiber.wedge_comps(k, m, a, b)
        ba = fiber.wedge_comps(m, k, b, a)
        assert np.abs(ab - (-1.0) ** (k * m) * ba).max() <= 1e-13


def test_wedge_associativity_random_triples():
    for _ in range(50):
        x, y, z = (RNG.normal(size=4) for _ in range(3))
        left = fiber.wedge_comps(2, 1, fiber.wedge_comps(1, 1, x, y), z)
        right = fiber.wedge_comps(1, 2, x, fiber.wedge_comps(1, 1, y, z))
        assert np.abs(left - right).max() <= 1e-13


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=4, max_size=4),
       st.lists(st.floats(-10, 10), min_size=4, max_size=4))
def test_wedge_bilinear_property(xs, ys):
    x, y = np.array(xs), np.array(ys)
    two = fiber.wedge_comps(1, 1, 2.0 * x, y)
    one = fiber.wedge_comps(1, 1, x, y)
    assert np.allclose(two, 2.0 * one, atol=1e-9)


# --- star --------------------------------------------------------------------

def test_star_oracle_basis_values():
    # frozen values computed from the epsilon-sum oracle
    b12 = np.eye(6)[0]
    assert np.array_equal(star_oracle(b12, EUCLIDEAN.eta), [0, 0, 0, 0, 0, 1])
    assert np.array_equal(star_oracle(b12, LORENTZIAN.eta), [0, 0, 0, 0, 0, -1])
    for sig in (EUCLIDEAN, LORENTZIAN):
        for I in range(6):
            b = np.eye(6)[I]
            assert np.allclose(fiber.hodge_star2(b, sig), star_oracle(b, sig.eta))


@pytest.mark.parametrize("eta_diag", [(1, 1, 1, 1), (1, 1, 1, -1), (1, 1, -1, 1)])
def test_sign_tables_match_the_epsilon_oracle(eta_diag):
    sig = fiber.Signature(eta_diag)
    oracle = np.array([star_oracle(b, sig.eta) for b in np.eye(6)]).T
    S = fiber.star2_matrix(sig)
    assert S.dtype == np.int64 and not S.flags.writeable and np.array_equal(S, oracle)
    gram = [[eps4_oracle(*PAIRS[I], *PAIRS[J]) for J in range(6)] for I in range(6)]
    assert np.array_equal(fiber.TR_GRAM2, gram)


def test_star_squares_to_signature_sign():
    for sig in (EUCLIDEAN, LORENTZIAN):
        for _ in range(100):
            b = RNG.normal(size=6)
            assert np.abs(fiber.hodge_star2(fiber.hodge_star2(b, sig), sig)
                          - sig.s * b).max() <= 1e-14


def test_star_exact_mode_is_exact():
    # integer bivectors stay integer through the one star path, equal to the float star
    for sig in (EUCLIDEAN, LORENTZIAN):
        b = RNG.integers(-9, 10, size=(5, 6))
        star = fiber.hodge_star2(b, sig)
        assert star.dtype == np.int64 and np.array_equal(star, fiber.hodge_star2(b * 1.0, sig))
        assert np.array_equal(fiber.hodge_star2(star, sig), sig.s * b)


# --- bracket and action --------------------------------------------------------

def test_bracket_antisymmetry_and_oracle():
    for sig in (EUCLIDEAN, LORENTZIAN):
        for _ in range(30):
            a = RNG.normal(size=6)
            b = RNG.normal(size=6)
            assert np.abs(fiber.bracket2(a, a, sig)).max() <= 1e-13
            got = fiber.bracket2(a, b, sig)
            assert np.allclose(got, bracket_oracle(a, b, sig.eta), atol=1e-12)


def test_bracket_basis_value_frozen():
    # [b12, b13] via the matrix oracle: equals -b23 in both signatures
    b12, b13 = np.eye(6)[0], np.eye(6)[1]
    for sig in (EUCLIDEAN, LORENTZIAN):
        got = fiber.bracket2(b12, b13, sig)
        assert np.array_equal(got, [0, 0, 0, -1, 0, 0])
        assert np.allclose(got, bracket_oracle(b12, b13, sig.eta))


def test_jacobi_identity():
    for sig in (EUCLIDEAN, LORENTZIAN):
        worst = 0.0
        for _ in range(100):
            a, b, c = (RNG.normal(size=6) for _ in range(3))
            jac = (fiber.bracket2(a, fiber.bracket2(b, c, sig), sig)
                   + fiber.bracket2(b, fiber.bracket2(c, a, sig), sig)
                   + fiber.bracket2(c, fiber.bracket2(a, b, sig), sig))
            worst = max(worst, np.abs(jac).max())
        assert worst <= 1e-13 * 100


def test_action_zero_and_matrix_oracle():
    v = RNG.normal(size=4)
    assert np.all(fiber.act_on_vector(np.zeros(6), v, LORENTZIAN) == 0)
    b12 = np.eye(6)[0]
    u3 = np.eye(4)[2]
    for sig in (EUCLIDEAN, LORENTZIAN):
        got = fiber.act_on_vector(b12, u3, sig)
        assert np.allclose(got, matrix_oracle(b12, sig.eta) @ u3)


def test_action_derivation_property():
    for sig in (EUCLIDEAN, LORENTZIAN):
        for _ in range(100):
            a, b = RNG.normal(size=6), RNG.normal(size=6)
            v = RNG.normal(size=4)
            lhs = fiber.act_on_vector(fiber.bracket2(a, b, sig), v, sig)
            rhs = (fiber.act_on_vector(a, fiber.act_on_vector(b, v, sig), sig)
                   - fiber.act_on_vector(b, fiber.act_on_vector(a, v, sig), sig))
            assert np.abs(lhs - rhs).max() <= 1e-12


# --- star cyclic and twist -----------------------------------------------------

def test_star_cyclic_identity():
    for sig in (EUCLIDEAN, LORENTZIAN):
        for _ in range(120):
            a, b = RNG.normal(size=6), RNG.normal(size=6)
            l1 = fiber.hodge_star2(fiber.bracket2(a, b, sig), sig)
            assert np.abs(l1 - fiber.bracket2(fiber.hodge_star2(a, sig), b, sig)).max() <= 1e-13
            assert np.abs(l1 - fiber.bracket2(a, fiber.hodge_star2(b, sig), sig)).max() <= 1e-13


def test_twist_identity_at_infinite_gamma():
    b = RNG.normal(size=6)
    assert np.array_equal(fiber.t_gamma(b, np.inf, LORENTZIAN), b)


def test_twist_rejects_zero_gamma():
    with pytest.raises(ValueError, match="nonzero"):
        fiber.t_gamma(np.ones(6), 0.0, LORENTZIAN)
    with pytest.raises(ValueError):
        fiber.t_gamma_matrix(0.0, LORENTZIAN)


def test_twist_pairing_symmetry_and_bracket_compatibility():
    for sig in (EUCLIDEAN, LORENTZIAN):
        for g in (0.5, 1.0, 3.0):
            for _ in range(40):
                a, b = RNG.normal(size=6), RNG.normal(size=6)
                ta, tb = fiber.t_gamma(a, g, sig), fiber.t_gamma(b, g, sig)
                sym = (fiber.tr_quad(fiber.wedge_comps(2, 2, ta, b))
                       - fiber.tr_quad(fiber.wedge_comps(2, 2, a, tb)))
                assert abs(sym) <= 1e-13 * (1 + np.abs(a).max() * np.abs(b).max())
                l1 = fiber.t_gamma(fiber.bracket2(a, b, sig), g, sig)
                assert np.abs(l1 - fiber.bracket2(ta, b, sig)).max() <= 1e-12


def test_pairing_matrix_determinants():
    for g in (0.5, 1.0, 2.0, 10.0):
        _, det = fiber.t_gamma_matrix(g, LORENTZIAN)
        expect = -((1 + g**-2) ** 3)
        assert abs(det - expect) <= 1e-12 * abs(expect)
    _, d1 = fiber.t_gamma_matrix(1.0, LORENTZIAN)
    assert abs(d1 + 8.0) <= 1e-12 * 8
    _, d2 = fiber.t_gamma_matrix(2.0, LORENTZIAN)
    assert abs(d2 + 125.0 / 64.0) <= 1e-12 * 2


def test_basis_map_determinants():
    for al in (0.5, 1.0):
        _, det = fiber.f_alpha_matrix(al)
        assert abs(det - (1 + al**2) ** 3) <= 1e-12 * 8
    _, d1 = fiber.f_alpha_matrix(1.0)
    assert abs(d1 - 8.0) <= 1e-12 * 8


def test_pairing_gram_nondegenerate():
    assert np.linalg.matrix_rank(fiber.TR_GRAM2) == 6


def test_morphism_residuals():
    assert fiber.morphism_residual(1.0, EUCLIDEAN) <= 1e-13
    assert fiber.morphism_residual(-1.0, EUCLIDEAN) <= 1e-13
    for g in (0.5, 1.0, 2.0):
        assert fiber.morphism_residual(g, LORENTZIAN) >= 0.1


def test_signature_validation():
    with pytest.raises(ValueError):
        fiber.Signature((1, 1, -1, -1))
    assert EUCLIDEAN.s == 1 and LORENTZIAN.s == -1


@pytest.mark.parametrize("eta_diag", [(-1, 1, 1, -1), (1, 1, 0, 1), (1, 1, 1), (1, 1, 1, 1, -1),
                                      (1, 1, 2, 1)])
def test_signature_rejects_two_minus_signs_a_zero_and_a_wrong_length(eta_diag):
    with pytest.raises(ValueError):
        fiber.Signature(eta_diag)


def test_signature_accepts_one_minus_sign_anywhere():
    # the adapted frame of a time-like span has eta_w = diag(1, 1, -1, 1)
    sig = fiber.Signature((1, 1, -1, 1))
    assert sig.s == -1
    S = fiber.star2_matrix(sig)
    assert np.abs(S @ S + np.eye(6)).max() == 0.0
    a, b = np.random.Generator(np.random.Philox(key=7)).normal(size=(2, 6))
    assert np.abs(S @ fiber.bracket2(a, b, sig) - fiber.bracket2(S @ a, b, sig)).max() <= 1e-13
