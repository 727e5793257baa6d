"""Pointwise matrix realizations of the wedge maps X -> X ^ e.

For the three shapes (p,k) in {(1,1), (1,2), (2,1)} this module builds the
coefficient matrices of W_e^{(p,k)} and decides their ranks and kernels
through singular values with an explicit gap policy.  The kernel/complement
split that the reduction applies, with its projectors p, p' and p^dagger,
is the e-adapted frame of `reduction.PhiFrame`: in the frame
{e_1, e_2, e_3, e_n} the wedge matrices are universal integer templates, and
both kernels are copies of Sym(3), the symmetric 3x3 matrices, through the
integer isometries `M12` and `M21` on the integer basis `SYM3`.  That one
description builds the kernel templates, their projectors and the exact
counts of `reduction`.  The kernels' equations

    (1,2):  X_a^{n b} = 0  and  sum_a X_a^{a b} = 0,
    (2,1):  X_{ab}^n = 0   and  sum_a X_{ab}^a = 0,

(`kernel_equations`) provide an independent membership check for it and for
the numerically computed kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fiber
from .fiber import PAIR_INDEX, Signature, site_blocks
from .grid import COMP_BASIS, NEXT, PREV

SHAPES = ((1, 1), (1, 2), (2, 1))


class ConditioningError(Exception):
    """A numerical-conditioning failure: the input is too close to degenerate.

    Every subclass names the offending site where there is a grid; the CLI
    maps this one class to exit code 3.
    """


class RankDecisionError(ConditioningError, RuntimeError):
    """Raised when the singular-value gap is too small to decide a rank."""


class NullNormalError(ConditioningError, ValueError):
    """Raised when the eta-normal of the coframe span is null (or undefined)."""


class SingularMatrixError(ConditioningError, ValueError):
    """A per-site 3x3 matrix is singular: zero determinant or a non-finite inverse."""


def at_site(score: np.ndarray) -> str:
    """' at site (i, j, k)' for the largest entry of a per-site score; '' for one site."""
    score = np.asarray(score)
    if score.ndim == 0:
        return ""
    site = np.unravel_index(int(np.argmax(score)), score.shape)
    return f" at site {tuple(int(i) for i in site)}"


#: 2^27 + 1: Veltkamp's constant, splitting a double into two halves of 26 bits
_SPLIT = 134217729.0


def _two_product(x, y):
    """(p, err) with p = fl(x y) and x y = p + err exactly (Dekker's product)."""
    p = x * y
    t = _SPLIT * x
    xh = t - (t - x)
    xl = x - xh
    t = _SPLIT * y
    yh = t - (t - y)
    yl = y - yh
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _inv3_block(m, inv, det):
    """`inv3` of one block, entry-major: m[i, j] is the array of a[i, j] over the sites."""
    b, c = m[NEXT], m[PREV]                                     # rows i+1 and i+2
    x, y, u, v = b[:, NEXT], c[:, PREV], b[:, PREV], c[:, NEXT]
    cof = x * y - u * v                                         # cofactor of a[i, j]
    # the first-row cofactors set det; with exact products a minor of nearly
    # parallel rows keeps its accuracy, so det stays within kappa eps
    (p, pe), (q, qe) = _two_product(x[0], y[0]), _two_product(u[0], v[0])
    cof[0] = (p - q) + (pe - qe)
    det[:] = (m[0] * cof[0]).sum(axis=0)
    inv[:] = np.moveaxis(cof, (0, 1), (-1, -2)) / det[:, None, None]


def inv3(a: np.ndarray):
    """(a^-1, det a) for a stack of 3x3 matrices (..., 3, 3), from the adjugate.

    The cofactor of a[i, j] is a[i+1, j+1] a[i+2, j+2] - a[i+1, j+2] a[i+2, j+1],
    indices mod 3, so no per-site LAPACK call is made; the first-row cofactors,
    which fix det, are formed with exact products.  The inverse is within a few
    kappa eps of LAPACK's.  SingularMatrixError, naming the first such site,
    when a determinant is 0 or the inverse is not finite.
    """
    a = np.asarray(a, dtype=float)
    sites = a.reshape(-1, 3, 3)
    inv, det = np.empty(sites.shape), np.empty(len(sites))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for block in site_blocks(len(sites)):
            _inv3_block(np.moveaxis(sites[block], 0, -1), inv[block], det[block])
    if not np.isfinite(inv).all():
        bad = ~np.isfinite(inv).all(axis=(-2, -1))
        raise SingularMatrixError(
            f"singular 3x3 matrix{at_site(bad.reshape(a.shape[:-2]))}: "
            f"determinant {det[np.argmax(bad)]:.3e}, inverse not finite")
    return inv.reshape(a.shape), det.reshape(a.shape[:-2])


#: shapes with a wedge matrix; the dual shapes (0,k) serve the annihilator checks
MATRIX_SHAPES = SHAPES + ((0, 1), (0, 2), (0, 3))


def wedge_matrix(e: np.ndarray, shape: tuple) -> np.ndarray:
    """Coefficient matrix of W_e^{(p,k)}; e has shape (..., 3, 4)."""
    if shape not in MATRIX_SHAPES:
        raise ValueError(f"unsupported shape {shape}")
    e = np.asarray(e, dtype=float)
    T = fiber.product_tensor(shape[0], 1, shape[1], 1)
    return fiber.bilinear_matrix(T, e.reshape(e.shape[:-2] + (12,)))


# ---------------------------------------------------------------------------
# e-adapted frame


#: cofactor expansion of det[e_1 e_2 e_3 x] along x: the columns kept per x-index
_COF_COLS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
_COF_SIGNS = np.array([-1.0, 1.0, -1.0, 1.0])
_PAIR_A, _PAIR_B = np.array(fiber.PAIRS).T


def complete_frame(e: np.ndarray, sig: Signature):
    """Frame matrix P = [e_1 e_2 e_3 e_n] with eta-orthogonal unit e_n, closed form.

    With the cofactor vector c (det[e_1 e_2 e_3 x] = c . x) and q = eta(c, c),
    e_n = sign(q) eta c / sqrt|q|, so det P = sqrt|q| > 0.  Returns (P, q_n)
    with q_n = eta(e_n, e_n); NullNormalError (a ValueError) naming the first
    such site when e_n is null or c = 0.
    """
    e = np.asarray(e, dtype=float)
    sub = e[..., :, _COF_COLS]                                   # (..., 3, 4, 3)
    c = _COF_SIGNS * np.einsum("...li,...li->...l", sub[..., 0, :, :],
                               np.cross(sub[..., 1, :, :], sub[..., 2, :, :]))
    q = np.einsum("...i,i,...i->...", c, sig.eta, c)
    null = np.abs(q) <= 1e-12 * np.einsum("...i,...i->...", c, c)
    if np.any(null):
        raise NullNormalError(f"cannot complete frame{at_site(null)}: normal direction is null")
    qn = np.sign(q)
    n = (qn / np.sqrt(np.abs(q)))[..., None] * sig.eta * c
    return np.concatenate([np.swapaxes(e, -1, -2), n[..., :, None]], axis=-1), qn


def compound_matrix(P: np.ndarray) -> np.ndarray:
    """Induced map Lambda^2 P on the ordered bivector components (`fiber.PAIRS`).

    The minor ((a, b), (c, d)) is P[a, c] P[b, d] - P[a, d] P[b, c], from the rows a and b.
    Written in blocks of sites into one array with the site axis fastest in memory.
    """
    sites = np.reshape(P, (-1, 4, 4))
    out = np.empty((6, 6, len(sites)))                          # [(c, d), (a, b), site]
    for block in site_blocks(len(sites)):
        cols = np.ascontiguousarray(sites[block].T)             # cols[c, a] = P[a, c]
        ca, cb = cols[_PAIR_A], cols[_PAIR_B]
        out[..., block] = ca[:, _PAIR_A] * cb[:, _PAIR_B] - cb[:, _PAIR_A] * ca[:, _PAIR_B]
    return np.moveaxis(out, (0, 1), (-1, -2)).reshape(np.shape(P)[:-2] + (6, 6))


# ---------------------------------------------------------------------------
# explicit kernel equations in the e-frame (integer templates)


def kernel_equations(shape: tuple) -> np.ndarray:
    """Integer matrix E with  ker W^{(p,k)} = { X : E X = 0 }  in e-frame coords.

    (1,2): X_a^{n b} = 0 and sum_a X_a^{a b} = 0, with X_a^{cd} at a * 6 + PAIR_INDEX[(c, d)];
    (2,1): X_{ab}^n = 0 and sum_a X_{ab}^a = 0, with X_{cd}^v at COMP_BASIS[2].index((c, d)) * 4 + v.
    """
    if shape == (1, 1):
        return np.eye(12)  # trivial kernel
    if shape == (1, 2):
        zero = [a * 6 + PAIR_INDEX[(b, 3)] for a in range(3) for b in range(3)]

        def trace(a, b):                                        # X_a^{ab}
            return a * 6 + PAIR_INDEX[(min(a, b), max(a, b))]
    elif shape == (2, 1):
        zero = [ci * 4 + 3 for ci in range(3)]

        def trace(a, b):                                        # X_{ab}^a
            return COMP_BASIS[2].index((min(a, b), max(a, b))) * 4 + a
    else:
        raise ValueError(f"unsupported shape {shape}")
    E = np.zeros((len(zero) + 3, 18 if shape == (1, 2) else 12))
    E[range(len(zero)), zero] = 1
    for b in range(3):
        for a in {0, 1, 2} - {b}:
            E[len(zero) + b, trace(a, b)] += 1 if a < b else -1
    return E


#: Both kernels are copies of Sym(3) through the integer isometries M12 (18, 9) and
#: M21 (12, 9) on vec(S) = S.reshape(9): on ker W^{(1,2)}, X_a^{bc} = eps^{bcd} S_ad,
#: zero on the pairs (b, n); on ker W^{(2,1)}, X_{ab}^c = eps_{abd} T^{dc}, zero at c = n
_EPS = fiber.wedge_signs(3, 2, 1)[:, :, 0]
_SPATIAL_PAIRS = np.eye(6, dtype=int)[:, [PAIR_INDEX[p] for p in COMP_BASIS[2]]]
M12 = np.kron(np.eye(3, dtype=int), _SPATIAL_PAIRS @ _EPS)
M21 = np.kron(_EPS, np.eye(4, 3, dtype=int))
#: the integer basis Z (9, 6) of Sym(3): vec E_ii, then vec(E_ij + E_ji) over the pairs
#: of COMP_BASIS[2], so Z^T Z = diag(1, 1, 1, 2, 2, 2)
_UNIT = np.eye(3, dtype=int)
SYM3 = np.stack([np.outer(_UNIT[i], _UNIT[j]) | np.outer(_UNIT[j], _UNIT[i])
                 for i, j in [(0, 0), (1, 1), (2, 2), *COMP_BASIS[2]]], axis=-1).reshape(9, 6)


# ---------------------------------------------------------------------------
# numerical splits


@dataclass
class WedgeKernel:
    """Rank decision and kernel of W_e^{shape} at every site of a coframe stack.

    Each array carries the leading (site) axes of the stack `e`.
    """

    shape: tuple
    e: np.ndarray                 # (..., 3, 4) coframes
    matrix: np.ndarray            # (..., cod, dom) coefficient matrices of W_e
    kernel_basis: np.ndarray      # (..., dom, kdim), orthonormal in u-frame coords
    singular_values: np.ndarray   # (..., min(cod, dom))
    gap: np.ndarray               # (...,) singular-value gap at the rank cut


def decide_rank(sv: np.ndarray, what: str):
    """(rank, gap) at every site of a stack of singular values sv (..., m), descending.

    The rank counts the singular values above 1e-10 times the largest.  The
    decision must be backed by a single dominant gap of the spectrum, of at
    least 1e6, with that threshold cut inside it; a near-degenerate matrix
    leaves intermediate singular values that break one of the two conditions,
    and a RankDecisionError names the first such site.  The gap is the ratio of
    the smallest kept singular value to the largest dropped one, or to the
    floor 1e-15 times the largest.  A zero spectrum has rank 0 with gap inf.
    """
    zero = sv[..., 0] == 0
    top = np.where(zero, 1.0, sv[..., 0])[..., None]     # any scale cuts a zero spectrum
    floor = 1e-15 * top
    cut = (sv > 1e-10 * top).sum(axis=-1)
    padded = np.concatenate([sv, floor], axis=-1)
    ratios = padded[..., :-1] / np.maximum(padded[..., 1:], floor)
    spectral = np.argmax(ratios, axis=-1) + 1
    gap = np.take_along_axis(ratios, cut[..., None] - 1, axis=-1)[..., 0]
    gap[zero] = np.inf
    bad = ~zero & ((spectral != cut) | (gap < 1e6))
    if np.any(bad):
        i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise RankDecisionError(
            f"ill-conditioned rank decision for {what}{at_site(bad)}: gap {gap[i]:.3e}, "
            f"threshold rank {cut[i]} vs spectral rank {spectral[i]}")
    return cut, gap


def kernel_basis(e: np.ndarray, shape: tuple) -> WedgeKernel:
    """Rank and kernel of W_e^{shape} on a stack e of shape (..., 3, 4), from one SVD.

    Per site the rank is that of `decide_rank`, and it must be the rank of W
    at a coframe (the e-frame template's); otherwise a RankDecisionError
    naming the first such site signals a near-degenerate coframe.  The kernel
    is spanned by the trailing right singular vectors.
    """
    e = np.asarray(e, dtype=float)
    if e.shape[-2:] != (3, 4):
        raise ValueError(f"per-site coframe must be 3x4, got a stack of shape {e.shape}")
    M = wedge_matrix(e, shape)
    _, sv, vh = np.linalg.svd(M)
    rank = M.shape[-1] - (0 if shape == (1, 1) else SYM3.shape[1])   # the rank at a coframe
    cut, gap = decide_rank(sv, f"W^{shape}")
    off = cut != rank
    if np.any(off):
        raise RankDecisionError(f"W^{shape} has rank {cut.flat[np.argmax(off)]}{at_site(off)}, "
                                f"not the coframe rank {rank}")
    return WedgeKernel(shape=shape, e=e, matrix=M,
                       kernel_basis=np.swapaxes(vh[..., rank:, :], -1, -2),
                       singular_values=sv, gap=gap)


# ---------------------------------------------------------------------------
# dual pairing and annihilator check


def dual_pairing_matrix(p: int, k: int) -> np.ndarray:
    """PG[z, x] = Tr-coefficient of Z ^ X for Z in Omega^{3-p}(Lambda^{4-k})."""
    return fiber.product_tensor(3 - p, p, 4 - k, k)[:, :, 0].astype(float)


def annihilator_check(split: WedgeKernel) -> dict:
    """Verify that the annihilator of the kernel is the image of the dual wedge map.

    Covectors vanishing on ker W_e^{(p,k)} must be of the form Y ^ e for the
    complementary shape (2-p, 3-k); the report carries the worst least-squares
    residual over an annihilator basis at every site of the split.  The
    residual is that of lstsq: the part of a covector outside the span of the
    left singular vectors above lstsq's cut eps max(m, n) sigma_max.
    """
    p, k = split.shape
    PG = dual_pairing_matrix(p, k)
    kern = split.kernel_basis
    kdim = kern.shape[-1]
    if kdim:
        # PG is a nondegenerate pairing, so kern^T PG^T has full row rank kdim and
        # its last right singular vectors span the annihilator
        vh = np.linalg.svd(np.swapaxes(kern, -1, -2) @ PG.T)[2]
        ann = np.swapaxes(vh[..., kdim:, :], -1, -2)            # (..., z-dim, m) columns
    else:
        ann = np.eye(PG.shape[0])
    M_dual = wedge_matrix(split.e, (2 - p, 3 - k))
    u, sv, _ = np.linalg.svd(M_dual, full_matrices=False)
    cut = np.finfo(float).eps * max(M_dual.shape[-2:]) * sv[..., :1]
    u = u * (sv > cut)[..., None, :]
    res = ann - u @ (np.swapaxes(u, -1, -2) @ ann)
    worst = np.linalg.norm(res, axis=-2).max()
    return {"shape": (p, k), "n_covectors": ann.shape[-1], "max_residual": float(worst)}
