"""Wedge-map matrices, kernels, complements, projectors."""

import numpy as np
import pytest
from fractions import Fraction

from pchgrav import exactla, fiber, wedgemaps as wm
from pchgrav.fiber import EUCLIDEAN, LORENTZIAN
from pchgrav.suites import random_nondegenerate_coframe

RNG = np.random.Generator(np.random.Philox(key=303))

STANDARD = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0]])


def test_shape_dimension_table():
    # domain/codomain coefficient dimensions per shape
    dims = {(1, 1): (12, 18), (1, 2): (18, 12), (2, 1): (12, 6)}
    assert set(dims) == set(wm.SHAPES)
    for shape, (dom, cod) in dims.items():
        M = wm.wedge_matrix(STANDARD, shape)
        assert M.shape == (cod, dom)


def test_unsupported_shape_rejected():
    with pytest.raises(ValueError, match="unsupported shape"):
        wm.wedge_matrix(STANDARD, (2, 2))
    # a (1, 3, 4) array is a stack of one coframe; a malformed trailing shape is refused
    assert wm.kernel_basis(STANDARD[None], (1, 2), LORENTZIAN).p.shape == (1, 18, 18)
    with pytest.raises(ValueError, match="3x4"):
        wm.kernel_basis(STANDARD[:, :3], (1, 2), LORENTZIAN)


def test_matrix_matches_fiber_wedge():
    for _ in range(20):
        e = random_nondegenerate_coframe(RNG, LORENTZIAN)
        M = wm.wedge_matrix(e, (1, 2))
        X = RNG.normal(size=(3, 6))
        direct = np.zeros((3, 4))
        for P, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):
            direct[P] = (fiber.wedge_comps(2, 1, X[a], e[b])
                         - fiber.wedge_comps(2, 1, X[b], e[a]))
        assert np.abs(M @ X.reshape(-1) - direct.reshape(-1)).max() <= 1e-13


def test_kernel_dimension_table_random_coframes():
    for sig in (EUCLIDEAN, LORENTZIAN):
        for _ in range(50):
            e = random_nondegenerate_coframe(RNG, sig)
            for shape, kdim, rank in (((1, 1), 0, 12), ((1, 2), 6, 12), ((2, 1), 6, 6)):
                split = wm.kernel_basis(e, shape, sig)
                assert split.kernel_basis.shape[1] == kdim
                assert split.matrix.shape[1] - kdim == rank
                assert split.gap >= 1e6


@pytest.mark.parametrize("sig", [EUCLIDEAN, LORENTZIAN], ids=["euclidean", "lorentzian"])
@pytest.mark.parametrize("shape", wm.SHAPES, ids=str)
def test_stacked_split_matches_single_sites(sig, shape):
    e = np.stack([random_nondegenerate_coframe(RNG, sig) for _ in range(20)]).reshape(4, 5, 3, 4)
    stack = wm.kernel_basis(e, shape, sig)
    assert stack.gap.shape == (4, 5)
    for site in np.ndindex(4, 5):
        one = wm.kernel_basis(e[site], shape, sig)
        for name in ("p", "p_prime", "p_dagger", "kernel_basis", "gap"):
            assert np.array_equal(getattr(stack, name)[site], getattr(one, name)), name


def test_rank_decision_error_names_the_site():
    e = np.stack([random_nondegenerate_coframe(RNG, LORENTZIAN) for _ in range(12)])
    e[7] = [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1e-8, 0]]
    with pytest.raises(wm.RankDecisionError, match=r"at site \(7,\)"):
        wm.kernel_basis(e, (1, 2), LORENTZIAN)
    with pytest.raises(wm.RankDecisionError, match=r"at site \(1, 1\)"):
        wm.kernel_basis(e.reshape(2, 6, 3, 4), (2, 1), LORENTZIAN)


def test_injectivity_surjectivity_statements():
    e = random_nondegenerate_coframe(RNG, LORENTZIAN)
    s11 = wm.kernel_basis(e, (1, 1), LORENTZIAN)
    assert s11.kernel_basis.shape[1] == 0           # injective at p = k = 1
    s12 = wm.kernel_basis(e, (1, 2), LORENTZIAN)
    assert (s12.singular_values > 1e-10).sum() == 12   # surjective onto 12 dims
    s21 = wm.kernel_basis(e, (2, 1), LORENTZIAN)
    assert (s21.singular_values > 1e-10).sum() == 6


def _complement_basis(sp, e, sig):
    """u-frame columns of the e-frame orthogonal complement of the kernel."""
    S = wm.domain_transform(wm.complete_frame(e, sig)[0], *sp.shape)
    kern_e = np.linalg.solve(S, sp.kernel_basis)
    return S @ (wm._orthonormal_nullspace(kern_e.T) if kern_e.shape[1] else np.eye(len(S)))


def test_projector_algebra():
    for _ in range(10):
        e = random_nondegenerate_coframe(RNG, LORENTZIAN)
        for shape in wm.SHAPES:
            sp = wm.kernel_basis(e, shape, LORENTZIAN)
            comp = _complement_basis(sp, e, LORENTZIAN)
            dom = sp.p.shape[0]
            assert np.abs(sp.p @ sp.p - sp.p).max() <= 1e-12
            assert np.abs(sp.p_prime @ sp.p_prime - sp.p_prime).max() <= 1e-12
            assert np.abs(sp.p @ sp.p_prime).max() <= 1e-12
            assert np.abs(sp.p + sp.p_prime - np.eye(dom)).max() <= 1e-12
            assert np.abs(sp.p_dagger @ sp.p_dagger - sp.p_dagger).max() <= 1e-11
            # p annihilates exactly the complement, fixes the kernel
            if sp.kernel_basis.shape[1]:
                assert np.abs(sp.p @ sp.kernel_basis - sp.kernel_basis).max() <= 1e-12
                assert np.abs(sp.p @ comp).max() <= 1e-12
            # p_dagger fixes the image
            img = sp.matrix @ comp
            assert np.abs(sp.p_dagger @ img - img).max() <= 1e-10 * max(1, np.abs(img).max())


def test_kernel_membership_by_explicit_equations():
    for shape in ((1, 2), (2, 1)):
        for _ in range(10):
            e = random_nondegenerate_coframe(RNG, LORENTZIAN)
            sp = wm.kernel_basis(e, shape, LORENTZIAN)
            P, _ = wm.complete_frame(e, LORENTZIAN)
            S = wm.domain_transform(P, *shape)
            k_e = np.linalg.solve(S, sp.kernel_basis)
            assert np.abs(wm.kernel_equations(shape) @ k_e).max() <= 1e-12


def test_rank_decision_error_near_degenerate():
    # a tiny third direction puts singular values between "kept" and "zero"
    e = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1e-8, 0]])
    with pytest.raises(wm.RankDecisionError):
        wm.kernel_basis(e, (1, 2), LORENTZIAN)
    # an (almost) rank-two array is rejected as a coframe outright
    e2 = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [1.0, 1e-9, 0, 0]])
    with pytest.raises(wm.RankDecisionError):
        wm.kernel_basis(e2, (1, 2), LORENTZIAN)


def test_annihilator_random_and_standard():
    worst = 0.0
    for _ in range(20):
        e = random_nondegenerate_coframe(RNG, LORENTZIAN)
        for shape in wm.SHAPES:
            sp = wm.kernel_basis(e, shape, LORENTZIAN)
            worst = max(worst, wm.annihilator_check(sp)["max_residual"])
    assert worst <= 1e-10

    sp = wm.kernel_basis(STANDARD, (1, 2), LORENTZIAN)
    rep = wm.annihilator_check(sp)
    assert rep["max_residual"] <= 1e-12


def test_annihilator_exact_rational_at_standard_coframe():
    # exact-mode statement: every covector annihilating the kernel template is
    # in the column space of the dual wedge matrix (rank does not grow)
    PG = exactla.from_numpy_int(wm.dual_pairing_matrix(1, 2))
    kern = [[Fraction(x) for x in col] for col in
            map(list, np.array([list(map(int, np.rint(v)))
                                for v in np.zeros((0, 18))]))]
    K12 = exactla.from_numpy_int(wm.kernel_equations((1, 2)))
    kernel_cols = exactla.nullspace(K12)                   # exact kernel basis
    M_dual = exactla.from_numpy_int(np.rint(wm.wedge_matrix(STANDARD, (1, 1))))
    # annihilator = nullspace of (kernel^T PG^T)
    rows = []
    for col in kernel_cols:
        rows.append([sum(col[i] * PG[z][i] for i in range(18)) for z in range(18)])
    ann_basis = exactla.nullspace(rows)
    base_rank = exactla.rank([list(r) for r in M_dual])
    for z in ann_basis:
        aug = [list(M_dual[i]) + [z[i]] for i in range(18)]
        assert exactla.rank(aug) == base_rank     # exactly solvable: residual 0


def test_projector_smoothness_in_e():
    for _ in range(10):
        e = random_nondegenerate_coframe(RNG, LORENTZIAN)
        sp = wm.kernel_basis(e, (1, 2), LORENTZIAN)
        d = RNG.normal(size=(3, 4))
        d = 1e-6 * d / np.abs(d).max()
        sp2 = wm.kernel_basis(e + d, (1, 2), LORENTZIAN)
        assert np.abs(sp2.p - sp.p).max() <= 1e-3   # O(|delta|) with O(1) constant


def test_complete_frame_properties():
    for sig in (EUCLIDEAN, LORENTZIAN):
        for _ in range(20):
            e = random_nondegenerate_coframe(RNG, sig)
            P, qn = wm.complete_frame(e, sig)
            en = P[:, 3]
            for a in range(3):
                assert abs(np.einsum("i,i,i->", e[a], sig.eta, en)) <= 1e-10 * np.abs(e).max()
            assert abs(abs(np.einsum("i,i,i->", en, sig.eta, en)) - 1.0) <= 1e-10
            assert np.linalg.det(P) > 0


def _with_spectrum(sv, n):
    """n random 3x3 matrices with singular values sv."""
    q1 = np.linalg.qr(RNG.normal(size=(n, 3, 3)))[0]
    q2 = np.linalg.qr(RNG.normal(size=(n, 3, 3)))[0]
    return (q1 * np.asarray(sv)) @ q2


@pytest.mark.parametrize("kappa", [1.0, 1e2, 1e4, 1e6, 1e8])
def test_inv3_matches_lapack_to_condition_times_eps(kappa):
    # one small singular value, a graded spectrum, and two small ones (nearly
    # parallel rows, where a plainly rounded adjugate loses kappa^2 eps)
    spectra = [(1.0, 1.0, 1 / kappa), (1.0, kappa ** -0.5, 1 / kappa), (1.0, 1 / kappa, 1 / kappa)]
    a = np.concatenate([_with_spectrum(sv, 1000) for sv in spectra])
    a *= RNG.uniform(0.1, 10.0, size=(len(a), 1, 1))
    inv, det = wm.inv3(a)
    ref, ref_det = np.linalg.inv(a), np.linalg.det(a)
    bound = 10 * np.linalg.cond(a) * np.finfo(float).eps
    assert (np.abs(inv - ref).max(axis=(-2, -1)) <= bound * np.abs(ref).max(axis=(-2, -1))).all()
    assert (np.abs(det - ref_det) <= bound * np.abs(ref_det)).all()
    assert inv.flags.c_contiguous


def test_inv3_exact_on_integer_matrices():
    a = RNG.integers(-6, 7, size=(200, 3, 3)).astype(float)
    a = a[np.abs(np.round(np.linalg.det(a))) > 0]
    inv, det = wm.inv3(a)
    for m, m_inv, d in zip(a, inv, det):
        exact = exactla.from_numpy_int(m)
        assert d == exactla.det(exact)
        aug = [row + [Fraction(int(i == j)) for j in range(3)] for i, row in enumerate(exact)]
        ref = [row[3:] for row in exactla.rref(aug)[0]]
        assert [[float(x) for x in row] for row in ref] == m_inv.tolist()


def test_inv3_names_the_singular_site():
    a = np.broadcast_to(np.diag([2.0, 1.0, 0.5]), (4, 4, 4, 3, 3)).copy()
    assert np.abs(wm.inv3(a)[0] - np.diag([0.5, 1.0, 2.0])).max() == 0.0
    a[1, 2, 3, 2] = a[1, 2, 3, 0] + a[1, 2, 3, 1]      # rank 2 at one site
    with pytest.raises(wm.SingularMatrixError, match=r"at site \(1, 2, 3\)"):
        wm.inv3(a)
    with pytest.raises(wm.ConditioningError, match="singular"):
        wm.inv3(np.zeros((3, 3)))
