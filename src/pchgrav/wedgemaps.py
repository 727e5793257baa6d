"""Pointwise matrix realizations of the wedge maps X -> X ^ e.

For the three shapes (p,k) in {(1,1), (1,2), (2,1)} this module builds the
coefficient matrices of W_e^{(p,k)}, decides their ranks and kernels through
singular values with an explicit gap policy, and assembles the projector
family (p, p', p^dagger).  The kernel/complement split is orthogonal in the
coefficient coordinates of the e-adapted frame {e_1, e_2, e_3, e_n}, which
keeps the projectors well conditioned and smooth in e.

In the e-adapted frame the wedge matrices are universal integer templates;
their kernels have the explicit descriptions

    (1,2):  X_a^{n b} = 0  and  sum_a X_a^{a b} = 0,
    (2,1):  X_{ab}^n = 0   and  sum_a X_{ab}^a = 0,

which provide an independent membership check for the numerically computed
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fiber
from .fiber import PAIR_INDEX, Signature
from .grid import COMP_BASIS, NCOMP

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


_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])
#: 2^27 + 1: Veltkamp's constant, splitting a double into two halves of 26 bits
_SPLIT = 134217729.0
#: sites per block of `inv3`, so that its temporaries stay in cache
_INV3_BLOCK = 2048


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
    b, c = m[_NEXT], m[_PREV]                                   # rows i+1 and i+2
    x, y, u, v = b[:, _NEXT], c[:, _PREV], b[:, _PREV], c[:, _NEXT]
    cof = x * y - u * v                                         # cofactor of a[i, j]
    # the first-row cofactors set det; with exact products a minor of nearly
    # parallel rows keeps its accuracy, so det stays within kappa eps
    (p, pe), (q, qe) = _two_product(x[0], y[0]), _two_product(u[0], v[0])
    cof[0] = (p - q) + (pe - qe)
    det[:] = (m[0] * cof[0]).sum(axis=0)
    inv[:] = np.moveaxis(cof, (0, 1), (-1, -2)) / det[:, None, None]


def cofactors3(a: np.ndarray) -> np.ndarray:
    """Cofactor matrix of a stack of 3x3 matrices (..., 3, 3), plain products."""
    b, c = a[..., _NEXT, :], a[..., _PREV, :]                   # rows i+1 and i+2
    return b[..., _NEXT] * c[..., _PREV] - b[..., _PREV] * c[..., _NEXT]


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
        for start in range(0, len(sites), _INV3_BLOCK):
            block = slice(start, start + _INV3_BLOCK)
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


def compound_matrix(P: np.ndarray, k: int) -> np.ndarray:
    """Induced map Lambda^k P on the ordered-basis components."""
    if k == 1:
        return P
    if k == 2:
        # minor ((a, b), (c, d)) = P[a, c] P[b, d] - P[a, d] P[b, c], from the rows a and b
        ra, rb = P[..., _PAIR_A, :], P[..., _PAIR_B, :]
        return ra[..., _PAIR_A] * rb[..., _PAIR_B] - ra[..., _PAIR_B] * rb[..., _PAIR_A]
    basis = fiber.GRADE_BASIS[k]
    dim = len(basis)
    out = np.zeros(P.shape[:-2] + (dim, dim))
    for J, cols in enumerate(basis):
        sub = P[..., :, cols]
        for I, rows in enumerate(basis):
            out[..., I, J] = np.linalg.det(sub[..., rows, :])
    return out


def block_diag(M: np.ndarray, m: int) -> np.ndarray:
    """kron(I_m, M), batched on the last two axes, C-contiguous whatever the layout of M
    (a strided operand makes the batched matmuls with it slower)."""
    d = M.shape[-1]
    out = np.zeros(M.shape[:-2] + (m, d, m, d))
    for c in range(m):
        out[..., c, :, c, :] = M
    return out.reshape(M.shape[:-2] + (m * d, m * d))


def domain_transform(P: np.ndarray, p: int, k: int) -> np.ndarray:
    """Coefficient map from e-frame to u-frame for Omega^p(Lambda^k)."""
    return block_diag(compound_matrix(P, k), NCOMP[p])


# ---------------------------------------------------------------------------
# explicit kernel equations in the e-frame (integer templates)


def kernel_equations(shape: tuple) -> np.ndarray:
    """Integer matrix E with  ker W^{(p,k)} = { X : E X = 0 }  in e-frame coords."""
    if shape == (1, 2):
        rows = []
        # X_a^{n b} = 0  (pairs containing the frame index 3 = n)
        for a in range(3):
            for pair in [(0, 3), (1, 3), (2, 3)]:
                r = np.zeros(18)
                r[a * 6 + PAIR_INDEX[pair]] = 1
                rows.append(r)
        # sum_a X_a^{a b} = 0 for each b
        for b in range(3):
            r = np.zeros(18)
            for a in range(3):
                if a == b:
                    continue
                pair = (a, b) if a < b else (b, a)
                sgn = 1 if a < b else -1
                r[a * 6 + PAIR_INDEX[pair]] += sgn
            rows.append(r)
        return np.array(rows)
    if shape == (2, 1):
        rows = []
        pairs2 = COMP_BASIS[2]
        # X_{ab}^n = 0
        for ci in range(3):
            r = np.zeros(12)
            r[ci * 4 + 3] = 1
            rows.append(r)
        # sum_a X_{ab}^a = 0 for each b
        for b in range(3):
            r = np.zeros(12)
            for a in range(3):
                if a == b:
                    continue
                if (a, b) in pairs2:
                    ci, sgn = pairs2.index((a, b)), 1
                else:
                    ci, sgn = pairs2.index((b, a)), -1
                r[ci * 4 + a] += sgn
            rows.append(r)
        return np.array(rows)
    if shape == (1, 1):
        return np.eye(12)  # trivial kernel
    raise ValueError(f"unsupported shape {shape}")


def _orthonormal_nullspace(E: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of ker E (columns)."""
    _, sv, vh = np.linalg.svd(E)
    rank = int((sv > 1e-10 * sv[0]).sum()) if len(sv) else 0
    basis = vh[rank:].T
    # fix signs: make the largest-magnitude entry of each column positive
    idx = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[idx, np.arange(basis.shape[1])])
    return basis * signs


#: orthonormal e-frame kernel templates (columns), per shape
KERNEL_TEMPLATES = {
    (1, 2): _orthonormal_nullspace(kernel_equations((1, 2))),
    (2, 1): _orthonormal_nullspace(kernel_equations((2, 1))),
    (1, 1): np.zeros((12, 0)),
}


# ---------------------------------------------------------------------------
# numerical splits


@dataclass
class ComplementSplit:
    """Kernel/complement split of W_e^{shape} at every site of a coframe stack.

    Each array carries the leading (site) axes of the stack `e`.
    """

    shape: tuple
    e: np.ndarray                 # (..., 3, 4) coframes
    matrix: np.ndarray            # (..., cod, dom) coefficient matrices of W_e
    kernel_basis: np.ndarray      # (..., dom, kdim), orthonormal in e-frame coords
    p: np.ndarray                 # projector onto the kernel (domain)
    p_prime: np.ndarray           # projector onto the complement (domain)
    p_dagger: np.ndarray          # projector onto im(W) (codomain)
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
    floor 1e-15 times the largest.
    """
    floor = 1e-15 * sv[..., :1]
    cut = (sv > 1e-10 * sv[..., :1]).sum(axis=-1)
    padded = np.concatenate([sv, floor], axis=-1)
    ratios = padded[..., :-1] / np.maximum(padded[..., 1:], floor)
    spectral = np.argmax(ratios, axis=-1) + 1
    gap = np.take_along_axis(ratios, cut[..., None] - 1, axis=-1)[..., 0]
    bad = (spectral != cut) | (gap < 1e6)
    if np.any(bad):
        i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise RankDecisionError(
            f"ill-conditioned rank decision for {what}{at_site(bad)}: gap {gap[i]:.3e}, "
            f"threshold rank {cut[i]} vs spectral rank {spectral[i]}")
    return cut, gap


def kernel_basis(e: np.ndarray, shape: tuple, sig: Signature) -> ComplementSplit:
    """Kernel/complement split of W_e^{shape} on a stack e of shape (..., 3, 4).

    Per site the rank is that of `decide_rank`, and it must be the rank of W
    at a coframe (the e-frame template's); otherwise a RankDecisionError
    naming the first such site signals a near-degenerate coframe.  One SVD,
    frame completion, inverse and QR serve the whole stack.
    """
    e = np.asarray(e, dtype=float)
    if e.shape[-2:] != (3, 4):
        raise ValueError(f"per-site coframe must be 3x4, got a stack of shape {e.shape}")
    p, k = shape
    M = wedge_matrix(e, shape)
    dom = M.shape[-1]
    u, sv, vh = np.linalg.svd(M)
    rank = dom - KERNEL_TEMPLATES[shape].shape[1]        # the rank of W at a coframe
    cut, gap = decide_rank(sv, f"W^{shape}")
    off = cut != rank
    if np.any(off):
        raise RankDecisionError(f"W^{shape} has rank {cut.flat[np.argmax(off)]}{at_site(off)}, "
                                f"not the coframe rank {rank}")

    try:
        P, _ = complete_frame(e, sig)
        S_dom = domain_transform(P, p, k)
        S_cod = domain_transform(P, p + 1, k + 1)
        S_dom_inv = np.linalg.inv(S_dom)
        S_cod_inv = np.linalg.inv(S_cod)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise RankDecisionError(f"degenerate coframe for W^{shape}: {exc}") from None

    kern_e = S_dom_inv @ np.swapaxes(vh[..., rank:, :], -1, -2)   # (..., dom, kdim)
    kern_e = np.linalg.qr(kern_e)[0] if rank < dom else kern_e
    proj = S_dom @ (kern_e @ np.swapaxes(kern_e, -1, -2)) @ S_dom_inv
    im_e = np.linalg.qr(S_cod_inv @ u[..., :, :rank])[0]
    p_dag = S_cod @ (im_e @ np.swapaxes(im_e, -1, -2)) @ S_cod_inv

    return ComplementSplit(
        shape=shape,
        e=e,
        matrix=M,
        kernel_basis=S_dom @ kern_e,
        p=proj,
        p_prime=np.eye(dom) - proj,
        p_dagger=p_dag,
        singular_values=sv,
        gap=gap,
    )


# ---------------------------------------------------------------------------
# dual pairing and annihilator check


def dual_pairing_matrix(p: int, k: int) -> np.ndarray:
    """PG[z, x] = Tr-coefficient of Z ^ X for Z in Omega^{3-p}(Lambda^{4-k})."""
    return fiber.product_tensor(3 - p, p, 4 - k, k)[:, :, 0].astype(float)


def annihilator_check(split: ComplementSplit) -> dict:
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
