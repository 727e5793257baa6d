"""Wedge-map matrices, kernels, complements, projectors.

The kernels come from the SVD rank decision of `wedgemaps.kernel_basis`; the
projectors are those of the e-adapted frame (`reduction.PhiFrame`), as dense
per-site matrices of their applies.
"""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from pchgrav import exactla, fiber, reduction as red, wedgemaps as wm
from pchgrav.fiber import EUCLIDEAN, LORENTZIAN
from pchgrav.config import validate_config
from pchgrav.suites import _projector_matrices, random_nondegenerate_coframe, run_kernels

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
    assert wm.kernel_basis(STANDARD[None], (1, 2)).kernel_basis.shape == (1, 18, 6)
    with pytest.raises(ValueError, match="3x4"):
        wm.kernel_basis(STANDARD[:, :3], (1, 2))


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
                split = wm.kernel_basis(e, shape)
                assert split.kernel_basis.shape[1] == kdim
                assert split.matrix.shape[1] - kdim == rank
                assert split.gap >= 1e6


@pytest.mark.parametrize("sig", [EUCLIDEAN, LORENTZIAN], ids=["euclidean", "lorentzian"])
@pytest.mark.parametrize("shape", wm.SHAPES, ids=str)
def test_stacked_split_matches_single_sites(sig, shape):
    e = np.stack([random_nondegenerate_coframe(RNG, sig) for _ in range(20)]).reshape(4, 5, 3, 4)
    stack = wm.kernel_basis(e, shape)
    assert stack.gap.shape == (4, 5)
    for site in np.ndindex(4, 5):
        one = wm.kernel_basis(e[site], shape)
        for name in ("matrix", "kernel_basis", "singular_values", "gap"):
            assert np.array_equal(getattr(stack, name)[site], getattr(one, name)), name


def test_rank_decision_error_names_the_site():
    e = np.stack([random_nondegenerate_coframe(RNG, LORENTZIAN) for _ in range(12)])
    e[7] = [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1e-8, 0]]
    with pytest.raises(wm.RankDecisionError, match=r"at site \(7,\)"):
        wm.kernel_basis(e, (1, 2))
    with pytest.raises(wm.RankDecisionError, match=r"at site \(1, 1\)"):
        wm.kernel_basis(e.reshape(2, 6, 3, 4), (2, 1))


def test_decide_rank_is_the_gap_rule_of_kernel_basis(monkeypatch):
    sv = np.array([[2.0, 1.0, 1e-12, 0.0], [1.0, 0.5, 0.25, 0.1],
                   [1.0, 1e-3, 1e-9, 1e-12]])
    rank, gap = wm.decide_rank(sv[:2], "test")
    assert rank.tolist() == [2, 4] and np.allclose(gap, [1e12, 1e14])
    # the threshold keeps 1e-9, but the dominant gap lies above it
    with pytest.raises(wm.RankDecisionError, match=r"test at site \(2,\).*rank 3 vs spectral rank 2"):
        wm.decide_rank(sv, "test")
    seen = []
    decide_rank = wm.decide_rank
    monkeypatch.setattr(wm, "decide_rank", lambda sv, what: seen.append(what) or decide_rank(sv, what))
    e = np.stack([random_nondegenerate_coframe(RNG, LORENTZIAN) for _ in range(3)])
    split = wm.kernel_basis(e, (2, 1))
    assert seen == ["W^(2, 1)"] and (split.gap >= 1e6).all()


def test_decide_rank_of_a_zero_spectrum_is_zero():
    rank, gap = wm.decide_rank(np.zeros((2, 4)), "test")
    assert rank.tolist() == [0, 0] and np.isinf(gap).all()
    # a zero site leaves the decisions and gaps of the other sites as they were
    sv = np.array([[2.0, 1.0, 1e-12, 0.0], [0.0] * 4, [1.0, 0.5, 0.25, 0.1]])
    rank, gap = wm.decide_rank(sv, "test")
    ref_rank, ref_gap = wm.decide_rank(sv[[0, 2]], "test")
    assert rank.tolist() == [2, 0, 4] and rank[[0, 2]].tolist() == ref_rank.tolist()
    assert np.array_equal(gap[[0, 2]], ref_gap) and gap[1] == np.inf


def _block3(M):
    """kron(I_3, M), batched on the last two axes: a leg-wise map on three legs."""
    return np.kron(np.eye(3), M)


def _frame_projectors(e, sig):
    pf = red.phi_frame(e, sig)
    return pf, {name: _projector_matrices(pf, name, d)
                for name, d in (("p12", 6), ("p12_prime", 6), ("p21", 4), ("p11_dag", 6))}


def test_injectivity_surjectivity_statements():
    e = random_nondegenerate_coframe(RNG, LORENTZIAN)
    s11 = wm.kernel_basis(e, (1, 1))
    assert s11.kernel_basis.shape[1] == 0           # injective at p = k = 1
    s12 = wm.kernel_basis(e, (1, 2))
    assert (s12.singular_values > 1e-10).sum() == 12   # surjective onto 12 dims
    s21 = wm.kernel_basis(e, (2, 1))
    assert (s21.singular_values > 1e-10).sum() == 6
    # the frame's projectors have the same ranks: kernels of dimension 6 and the
    # 12-dimensional image of the injective W^(1,1)
    _, p = _frame_projectors(e, LORENTZIAN)
    assert [round(float(np.trace(p[name]))) for name in ("p12", "p12_prime", "p21", "p11_dag")] \
        == [6, 12, 6, 12]
    assert np.abs(s12.matrix @ p["p12"]).max() <= 1e-12 * np.abs(p["p12"]).max()
    assert np.abs(s21.matrix @ p["p21"]).max() <= 1e-12 * np.abs(p["p21"]).max()


def _complement_basis(kern, S):
    """u-frame columns of the e-frame orthogonal complement of the kernel columns kern,
    with S the dense e-frame to u-frame transform: the null space of kern_e^T by SVD."""
    kern_e = np.linalg.solve(S, kern)
    return S @ np.linalg.svd(kern_e.T)[2][kern_e.shape[1]:].T


def test_projector_algebra():
    e = np.stack([random_nondegenerate_coframe(RNG, LORENTZIAN) for _ in range(10)])
    pf, p = _frame_projectors(e, LORENTZIAN)
    for m in p.values():
        assert np.abs(m @ m - m).max() <= 1e-12
    assert np.abs(p["p12"] @ p["p12_prime"]).max() <= 1e-12
    assert np.abs(p["p12"] + p["p12_prime"] - np.eye(18)).max() <= 1e-12
    # each kernel projector fixes the SVD kernel and annihilates the e-frame complement
    for name, shape, S in (("p12", (1, 2), _block3(pf.L2P)), ("p21", (2, 1), _block3(pf.frames))):
        kern = wm.kernel_basis(e, shape).kernel_basis
        assert np.abs(p[name] @ kern - kern).max() <= 1e-12
        for site in range(len(e)):
            comp = _complement_basis(kern[site], S[site])
            assert np.abs(p[name][site] @ comp).max() <= 1e-12 * np.abs(comp).max()
    # p11_dag fixes the image of W^(1,1)
    img = wm.wedge_matrix(e, (1, 1)) @ RNG.normal(size=(10, 12, 5))
    assert np.abs(p["p11_dag"] @ img - img).max() <= 1e-10 * max(1, np.abs(img).max())


def test_kernel_membership_by_explicit_equations():
    e = np.stack([random_nondegenerate_coframe(RNG, LORENTZIAN) for _ in range(10)])
    pf = red.phi_frame(e, LORENTZIAN)
    for shape, S_inv in (((1, 2), _block3(pf.L2P_inv)), ((2, 1), _block3(pf.frames_inv))):
        # the SVD kernel, moved into e-frame coordinates by the frame's inverse transform
        k_e = S_inv @ wm.kernel_basis(e, shape).kernel_basis
        assert np.abs(wm.kernel_equations(shape) @ k_e).max() <= 1e-12


@pytest.mark.parametrize("shape", [(1, 2), (2, 1)])
def test_kernels_are_sym3_through_integer_isometries(shape):
    """M^T M = 1_9, and M Z spans ker W^{(p,k)}: the kernel's equations annihilate it
    in integers, and it has the kernel's dimension 6."""
    M = wm.M12 if shape == (1, 2) else wm.M21
    assert M.dtype.kind == "i" and wm.SYM3.dtype.kind == "i"
    assert (M.T @ M == np.eye(9, dtype=int)).all()
    assert (wm.SYM3.T @ wm.SYM3 == np.diag([1, 1, 1, 2, 2, 2])).all()
    assert not (wm.kernel_equations(shape).astype(int) @ M @ wm.SYM3).any()
    assert exactla.rank((M @ wm.SYM3).tolist()) == 6


@pytest.mark.parametrize("P,Q", [("_P12_E", "_Q12_E"), ("_P21_E", None)])
def test_kernel_template_projectors_are_exact(P, Q):
    """The e-frame kernel projectors M Z D^-1 Z^T M^T and their complements are exactly
    idempotent and complementary (compared with ==), and fix the orthonormal template."""
    P = getattr(red, P)
    Q = np.eye(len(P)) - P if Q is None else getattr(red, Q)
    assert set(np.unique(P)) <= {-0.5, 0.0, 0.5, 1.0}
    assert (P @ P == P).all() and (P == P.T).all()
    assert (Q @ Q == Q).all() and (P + Q == np.eye(len(P))).all()
    assert not (P @ Q).any() and not (Q @ P).any()
    K = red.K12HAT if len(P) == 18 else red.K21HAT
    assert np.abs(P @ K - K).max() <= 1e-15 and np.abs(K.T @ K - np.eye(6)).max() <= 1e-15


def test_wedge_template_solves_are_exact():
    """p11's template W11_E W11_E^+ and the template pseudo-inverses of W^{(1,1)} and
    W^{(1,2)} are exact (compared with ==) and equal numpy's pinv to roundoff."""
    W11 = wm.wedge_matrix(np.eye(3, 4), (1, 1))
    W12 = wm.wedge_matrix(np.eye(3, 4), (1, 2))
    P, W11P, W12P = red._P11DAG_E, red._W11_PINV_E, red._W12_PINV_E
    for M in (P, W11P, W12P):
        assert set(np.unique(M)) <= {-1.0, -0.5, 0.0, 0.5, 1.0}
    assert (W11P @ W11 == np.eye(12)).all() and (W11 @ W11P == P).all()
    assert (P @ P == P).all() and (P == P.T).all() and not (W11.T @ (np.eye(18) - P)).any()
    assert (W12 @ W12P == np.eye(12)).all() and (red._Q12_E @ W12P == W12P).all()
    assert np.abs(W11P - np.linalg.pinv(W11)).max() <= 1e-15
    assert np.abs(W12P - np.linalg.pinv(W12)).max() <= 1e-15


def test_exact_inverse():
    M = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    inv = exactla.inverse(M)
    assert inv == [[Fraction(3, 4), Fraction(-1, 4), Fraction(-1, 4)],
                   [Fraction(-1, 4), Fraction(3, 4), Fraction(-1, 4)],
                   [Fraction(-1, 4), Fraction(-1, 4), Fraction(3, 4)]]
    with pytest.raises(ValueError, match="singular"):
        exactla.inverse([[1, 2], [2, 4]])


def test_import_makes_no_svd_call():
    """The e-frame templates are built from integer tables: importing pchgrav makes no
    SVD, counted in a fresh interpreter under both names, numpy.linalg.svd and the
    numpy.linalg._linalg.svd that pinv and matrix_rank call."""
    code = ("import numpy as np, numpy.linalg._linalg as la\n"
            "calls = []\n"
            "def counted(svd):\n"
            "    return lambda *a, **k: calls.append(1) or svd(*a, **k)\n"
            "np.linalg.svd, la.svd = counted(np.linalg.svd), counted(la.svd)\n"
            "import pchgrav\n"
            "print(len(calls))\n")
    # the child imports the same package as the tests, installed or not
    src = os.path.dirname(os.path.dirname(wm.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.split() == ["0"]


def test_rank_decision_error_near_degenerate():
    # a tiny third direction puts singular values between "kept" and "zero"
    e = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1e-8, 0]])
    with pytest.raises(wm.RankDecisionError):
        wm.kernel_basis(e, (1, 2))
    # an (almost) rank-two array is rejected as a coframe outright
    e2 = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [1.0, 1e-9, 0, 0]])
    with pytest.raises(wm.RankDecisionError):
        wm.kernel_basis(e2, (1, 2))


def test_annihilator_random_and_standard():
    worst = 0.0
    for _ in range(20):
        e = random_nondegenerate_coframe(RNG, LORENTZIAN)
        for shape in wm.SHAPES:
            sp = wm.kernel_basis(e, shape)
            worst = max(worst, wm.annihilator_check(sp)["max_residual"])
    assert worst <= 1e-10

    sp = wm.kernel_basis(STANDARD, (1, 2))
    rep = wm.annihilator_check(sp)
    assert rep["max_residual"] <= 1e-12


def test_annihilator_exact_rational_at_standard_coframe():
    # exact statement: every covector annihilating the kernel template is
    # in the column space of the dual wedge matrix (rank does not grow)
    PG = wm.dual_pairing_matrix(1, 2).astype(int).tolist()
    K12 = wm.kernel_equations((1, 2)).astype(int).tolist()
    kernel_cols = exactla.nullspace(K12)                   # exact kernel basis
    M_dual = np.rint(wm.wedge_matrix(STANDARD, (1, 1))).astype(int).tolist()
    # annihilator = nullspace of (kernel^T PG^T)
    rows = []
    for col in kernel_cols:
        rows.append([sum(col[i] * PG[z][i] for i in range(18)) for z in range(18)])
    ann_basis = exactla.nullspace(rows)
    base_rank = exactla.rank([list(r) for r in M_dual])
    for z in ann_basis:
        aug = [list(M_dual[i]) + [z[i]] for i in range(18)]
        assert exactla.rank(aug) == base_rank     # exactly solvable: residual 0


def test_kernel_table_fails_on_a_perturbed_frame_template(monkeypatch):
    # the row certifies the projectors that the reduction applies: a 1e-9 error in
    # the e-frame kernel template breaks p12^2 = p12 and p12 + p12' = 1
    monkeypatch.setattr(red, "_P12_E", red._P12_E + 1e-9 * np.eye(18))
    row = run_kernels(validate_config({"suites": ["kernels"]}))[0]
    assert row.id == "kernels/kernel-table" and not row.passed
    assert row.values["projector_residual"] >= 1e-10


def test_projector_smoothness_in_e():
    e = np.stack([random_nondegenerate_coframe(RNG, LORENTZIAN) for _ in range(10)])
    d = RNG.normal(size=(10, 3, 4))
    d = 1e-6 * d / np.abs(d).max(axis=(-2, -1), keepdims=True)
    p, p2 = _projector_matrices(red.phi_frame(np.stack([e, e + d]), LORENTZIAN), "p12", 6)
    assert np.abs(p2 - p).max() <= 1e-3   # O(|delta|) with O(1) constant


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
        exact = m.astype(int).tolist()
        assert d == exactla.det(exact)
        aug = [row + [int(i == j) for j in range(3)] for i, row in enumerate(exact)]
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
