"""The structure-constant contraction kernel against loop-built references."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from pchgrav import constraints as cst, fiber, reduction as red, wedgemaps as wm
from pchgrav.fiber import EUCLIDEAN, GRADE_DIMS, LORENTZIAN, PAIRS
from pchgrav.grid import NCOMP, FormField, Grid3, cov_deriv, random_field_spec

RNG = np.random.Generator(np.random.Philox(key=404))
SIGS = (EUCLIDEAN, LORENTZIAN)
FORM_PAIRS = [(p, q) for p in range(4) for q in range(4) if p + q <= 3]
GRADE_PAIRS = [(k, m) for k in range(5) for m in range(5) if k + m <= 4]


# --- reference tensors, built by explicit loops ------------------------------

def sort_sign(idx):
    """Sorted tuple and sign of the sorting permutation (inversion count), or None."""
    if len(set(idx)) < len(idx):
        return None, 0
    inversions = sum(idx[i] > idx[j] for i in range(len(idx)) for j in range(i + 1, len(idx)))
    return tuple(sorted(idx)), (-1) ** inversions


def wedge_tensor_ref(n, k, m):
    """W[i, j, o] of the wedge on an n-space, ordered bases of sorted tuples."""
    bk, bm, bo = (list(combinations(range(n), g)) for g in (k, m, k + m))
    W = np.zeros((len(bk), len(bm), len(bo)))
    for i, a in enumerate(bk):
        for j, b in enumerate(bm):
            merged, sign = sort_sign(a + b)
            if merged is not None:
                W[i, j, bo.index(merged)] = sign
    return W


def coord_wedge_ref(p, q):
    return wedge_tensor_ref(3, p, q)


def bivector_matrix(I, eta):
    """Basis bivector b_I as the matrix acting on vectors: M^i_j = b^{ik} eta_kj."""
    i, j = PAIRS[I]
    B = np.zeros((4, 4))
    B[i, j], B[j, i] = 1.0, -1.0
    return B * np.asarray(eta, dtype=float)[None, :]


def action_ref(sig):
    """act[I, j, k] = (b_I . u_j)^k from the matrix representation."""
    act = np.zeros((6, 4, 4))
    for I in range(6):
        act[I] = bivector_matrix(I, sig.eta_diag).T
    return act


def bracket_ref(sig):
    """C[I, J, K] from the matrix commutator, raised back with eta."""
    eta = np.asarray(sig.eta_diag, dtype=float)
    C = np.zeros((6, 6, 6))
    for I in range(6):
        for J in range(6):
            MI, MJ = bivector_matrix(I, eta), bivector_matrix(J, eta)
            raw = (MI @ MJ - MJ @ MI) / eta[None, :]
            C[I, J] = [raw[i, j] for (i, j) in PAIRS]
    return C


def combined_ref(CW, FW):
    """T[(a,i), (b,j), (c,o)] = CW[a,b,c] FW[i,j,o] by nested loops."""
    na, nb, nc = CW.shape
    fi, fj, fo = FW.shape
    T = np.zeros((na * fi, nb * fj, nc * fo))
    for a in range(na):
        for b in range(nb):
            for c in range(nc):
                if CW[a, b, c] == 0:
                    continue
                for i in range(fi):
                    for j in range(fj):
                        for o in range(fo):
                            T[a * fi + i, b * fj + j, c * fo + o] = CW[a, b, c] * FW[i, j, o]
    return T


def wedge_matrix_tensor_ref(p, k):
    """TT[cod, dom, a, i] with M(e)[cod, dom] = sum TT[cod,dom,a,i] e_a^i."""
    CW = coord_wedge_ref(p, 1)
    FW = wedge_tensor_ref(4, k, 1)
    ncomp_in, ncomp_out = NCOMP[p], NCOMP[p + 1]
    fin, fout = GRADE_DIMS[k], GRADE_DIMS[k + 1]
    TT = np.zeros((ncomp_out * fout, ncomp_in * fin, 3, 4))
    for ci in range(ncomp_in):
        for fi in range(fin):
            for a in range(3):
                for i in range(4):
                    for co in range(ncomp_out):
                        s1 = CW[ci, a, co]
                        if s1 == 0:
                            continue
                        for fo in range(fout):
                            s2 = FW[fi, i, fo]
                            if s2 == 0:
                                continue
                            TT[co * fout + fo, ci * fin + fi, a, i] += s1 * s2
    return TT


def bracket_matrix_tensor_ref(sig):
    """BT[cod, dom, b, j]: matrix of v -> [v, e] in u-coords, linear in e_b^j."""
    act = action_ref(sig)
    pairs = [(0, 1), (0, 2), (1, 2)]
    BT = np.zeros((12, 18, 3, 4))
    for a in range(3):
        for I in range(6):
            dom = a * 6 + I
            for d in range(3):
                if a == d:
                    continue
                pair = (a, d) if a < d else (d, a)
                s = 1 if a < d else -1
                co = pairs.index(pair)
                for j in range(4):
                    for k in range(4):
                        if act[I, j, k]:
                            BT[co * 4 + k, dom, d, j] += s * act[I, j, k]
    return BT


def dual_pairing_ref(p, k):
    pz, kz = 3 - p, 4 - k
    CW = coord_wedge_ref(pz, p)
    FW = wedge_tensor_ref(4, kz, k)
    nz, fz = NCOMP[pz], GRADE_DIMS[kz]
    nx, fx = NCOMP[p], GRADE_DIMS[k]
    PG = np.zeros((nz * fz, nx * fx))
    for cz in range(nz):
        for fzi in range(fz):
            for cx in range(nx):
                for fxi in range(fx):
                    PG[cz * fz + fzi, cx * fx + fxi] = CW[cz, cx, 0] * FW[fzi, fxi, 0]
    return PG


def frame_bracket_rows_ref(g):
    """e-frame matrix of v -> [v,e]: act(e_m ^ e_n, e_d) = e_m g_{nd} - e_n g_{md}."""
    pairs = [(0, 1), (0, 2), (1, 2)]
    rows = [[0 * g[0][0] for _ in range(18)] for _ in range(12)]
    for a in range(3):
        for P, (m, n) in enumerate(PAIRS):
            for d in range(3):
                if a == d:
                    continue
                s = 1 if a < d else -1
                co = pairs.index((min(a, d), max(a, d)))
                if n < 3:
                    rows[co * 4 + m][a * 6 + P] += s * g[n][d]
                if m < 3:
                    rows[co * 4 + n][a * 6 + P] -= s * g[m][d]
    return rows


def matrix_tensor(matrix_of):
    """Recover TT[cod, dom, b, j] of a matrix linear in e by evaluating unit coframes."""
    cols = []
    for b in range(3):
        for j in range(4):
            e = np.zeros((3, 4))
            e[b, j] = 1.0
            cols.append(matrix_of(e))
    return np.stack(cols, axis=-1).reshape(cols[0].shape + (3, 4))


# --- combined tensors equal the references exactly ------------------------------

@pytest.mark.parametrize("p,q", FORM_PAIRS)
def test_wedge_product_tensors_match_reference(p, q):
    for k, m in GRADE_PAIRS:
        ref = combined_ref(coord_wedge_ref(p, q), wedge_tensor_ref(4, k, m))
        assert np.array_equal(fiber.product_tensor(p, q, k, m), ref), (k, m)


@pytest.mark.parametrize("p,q", FORM_PAIRS)
@pytest.mark.parametrize("sig", SIGS, ids=lambda s: s.name)
def test_action_product_tensors_match_reference(p, q, sig):
    for m, FW in ((1, action_ref(sig)), (2, bracket_ref(sig))):
        ref = combined_ref(coord_wedge_ref(p, q), FW)
        assert np.array_equal(fiber.product_tensor(p, q, 2, m, sig), ref), m


def test_action_needs_bivector_on_vectors_or_bivectors():
    with pytest.raises(ValueError, match="vector/bivector"):
        fiber.product_tensor(1, 1, 2, 3, LORENTZIAN)


@pytest.mark.parametrize("shape", wm.MATRIX_SHAPES)
def test_wedge_matrix_matches_reference(shape):
    got = matrix_tensor(lambda e: wm.wedge_matrix(e, shape))
    assert np.array_equal(got, wedge_matrix_tensor_ref(*shape))


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: s.name)
def test_bracket_matrix_matches_reference(sig):
    got = matrix_tensor(lambda e: red.bracket_matrix(e, sig))
    assert np.array_equal(got, bracket_matrix_tensor_ref(sig))


def test_frame_bracket_matrix_matches_reference_exact_and_float():
    for _ in range(10):
        g = RNG.integers(-3, 4, size=(3, 3))
        g = g + g.T
        exact = np.array([[Fraction(int(x)) for x in row] for row in g], dtype=object)
        got = red.frame_bracket_matrix(exact)
        assert got.tolist() == frame_bracket_rows_ref(exact.tolist())
        assert all(isinstance(x, Fraction) for x in got.reshape(-1))
        gf = RNG.normal(size=(3, 3))
        assert np.array_equal(red.frame_bracket_matrix(gf + gf.T),
                              np.array(frame_bracket_rows_ref(gf + gf.T)))


@pytest.mark.parametrize("p,k", [(p, k) for p in range(4) for k in range(5)])
def test_dual_pairing_matrix_matches_reference(p, k):
    assert np.array_equal(wm.dual_pairing_matrix(p, k), dual_pairing_ref(p, k))


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: s.name)
def test_pairing_gram_22_12_matches_reference(sig):
    for gamma in (0.5, 1.0, np.inf):
        Gt = fiber.t_gamma_endo_matrix(gamma, sig).T @ fiber.TR_GRAM2
        CW = coord_wedge_ref(2, 1)[:, :, 0]
        ref = np.zeros((18, 18))
        for cz in range(3):
            for cx in range(3):
                ref[cz * 6:(cz + 1) * 6, cx * 6:(cx + 1) * 6] = CW[cz, cx] * Gt
        assert np.array_equal(cst._pairing_gram_22_12(gamma, sig), ref)


# --- float and exact paths agree on small integers --------------------------------

def small_ints(*shape):
    return RNG.integers(-3, 4, size=shape)


def assert_float_matches_exact(T, x, y):
    exact = fiber.bilinear(T, fiber.frac_array(x), fiber.frac_array(y))
    got = fiber.bilinear(T, x.astype(float), y.astype(float))
    assert exact.dtype == object and got.dtype == float
    assert np.array_equal(got, exact.astype(float))


@pytest.mark.parametrize("k,m", GRADE_PAIRS)
def test_float_and_exact_paths_agree_wedge(k, m):
    x, y = small_ints(7, GRADE_DIMS[k]), small_ints(7, GRADE_DIMS[m])
    assert_float_matches_exact(fiber.product_tensor(0, 0, k, m), x, y)
    got = fiber.wedge_comps(k, m, fiber.frac_array(x), fiber.frac_array(y))
    assert np.array_equal(got.astype(float), fiber.wedge_comps(k, m, x * 1.0, y * 1.0))


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: s.name)
@pytest.mark.parametrize("m", (1, 2))
def test_float_and_exact_paths_agree_action(sig, m):
    x, y = small_ints(7, 6), small_ints(7, GRADE_DIMS[m])
    assert_float_matches_exact(fiber.product_tensor(0, 0, 2, m, sig), x, y)
    assert_float_matches_exact(fiber.product_tensor(1, 1, 2, m, sig), small_ints(5, 18),
                               small_ints(5, 3 * GRADE_DIMS[m]))
    op = fiber.act_on_vector if m == 1 else fiber.bracket2
    got = op(fiber.frac_array(x), fiber.frac_array(y), sig)
    assert np.array_equal(got.astype(float), op(x * 1.0, y * 1.0, sig))


def test_kernel_broadcasts_leading_axes():
    T = fiber.product_tensor(0, 0, 2, 1, LORENTZIAN)
    a, v = RNG.normal(size=6), RNG.normal(size=(2, 3, 4))
    got = fiber.bilinear(T, a, v)
    assert got.shape == (2, 3, 4)
    for idx in np.ndindex(2, 3):
        assert np.allclose(got[idx], fiber.bilinear(T, a, v[idx]), rtol=0, atol=1e-15)


def test_kernel_blocks_match_one_shot_contraction():
    n = 16   # 4096 sites: more than one block of the float path
    T = fiber.product_tensor(1, 1, 2, 2, LORENTZIAN)
    x, y = RNG.normal(size=(n, n, n, 18)), RNG.normal(size=(n, n, n, 18))
    ref = np.einsum("abo,...a,...b->...o", T, x, y)
    assert np.abs(fiber.bilinear(T, x, y) - ref).max() <= 1e-13


# --- the transposed action tensor ---------------------------------------------

def test_cov_deriv_transpose_is_the_transpose():
    g = Grid3(4)
    omega = random_field_spec(RNG, 1, 2, n_modes=1, amp=0.5).sample(g)
    X = random_field_spec(RNG, 1, 1, n_modes=2, amp=0.5).sample(g)
    Y = FormField(g, 2, 1, RNG.normal(size=(4, 4, 4, 3, 4)))
    lhs = float((cov_deriv(X, omega, LORENTZIAN).data * Y.data).sum())
    rhs = float((X.data * cst._cov_deriv_transpose(Y, omega, LORENTZIAN).data).sum())
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
