"""Pointwise exterior algebra of a 4-dimensional inner-product space (V, eta).

Everything here is exact structure-constant algebra: wedge products on
Lambda^k V, the internal Hodge star on bivectors, the so(eta) bracket and its
action on vectors, the volume pairing Tr, and the Barbero-Immirzi twist maps
T_gamma.  All operations broadcast over arbitrary leading axes, so whole grids
of fiber values can be processed in one call.  Every wedge, bracket and action
product, of fiber values or of whole form fields, is one call of the
contraction kernel `bilinear` on a combined structure tensor from
`product_tensor`.  Those tensors are signed selections, and the kernel
multiplies only their nonzero entries, gathered by a plan built once per
tensor (and per transposed view).

Conventions (fixed once, used everywhere):
  * basis u_1..u_4 of V, eta = diag(1,1,1,1) or diag(1,1,1,-1) (any diagonal
    with at most one -1 is accepted, e.g. the adapted frame of a time-like
    span, diag(1,1,-1,1));
  * eps_{1234} = +1 and Tr(u_i ^ u_j ^ u_k ^ u_l) = eps_{ijkl};
  * bivector components are stored on the ordered pairs
    (12, 13, 14, 23, 24, 34), trivector components on the sorted triple that
    omits the flagged index;
  * the bracket on Lambda^2 V is the matrix commutator after lowering one
    index with eta:  [A,B]^{rs} = A^{rm} eta_{mn} B^{ns} - (A <-> B).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

# ---------------------------------------------------------------------------
# gradings and basis bookkeeping

GRADE_DIMS = {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}

#: ordered basis index tuples for each grade (0-based vector indices)
GRADE_BASIS = {k: list(combinations(range(4), k)) for k in range(5)}

PAIRS = GRADE_BASIS[2]
PAIR_INDEX = {p: i for i, p in enumerate(PAIRS)}


def _merge_sign(a: tuple, b: tuple):
    """Sign of sorting the concatenation of two disjoint sorted tuples, or None."""
    if set(a) & set(b):
        return None, None
    merged = list(a + b)
    sign = 1
    for i in range(len(merged)):
        for j in range(i + 1, len(merged)):
            if merged[i] > merged[j]:
                sign = -sign
    return tuple(sorted(merged)), sign


@lru_cache(maxsize=None)
def wedge_signs(n: int, k: int, m: int) -> np.ndarray:
    """S[i, j, o]: sign of basis_k[i] ^ basis_m[j] along basis_{k+m}[o] of an n-space.

    Bases are the sorted index tuples `combinations(range(n), k)`; n = 4 gives
    the fiber wedge on Lambda^* V, n = 3 the coordinate wedge of forms on T^3.
    Built on first use, read-only.
    """
    basis = {g: list(combinations(range(n), g)) for g in (k, m, k + m)}
    out_index = {t: i for i, t in enumerate(basis[k + m])}
    S = np.zeros((len(basis[k]), len(basis[m]), len(basis[k + m])), dtype=np.int64)
    for i, a in enumerate(basis[k]):
        for j, b in enumerate(basis[m]):
            merged, sign = _merge_sign(a, b)
            if merged is not None:
                S[i, j, out_index[merged]] = sign
    S.flags.writeable = False
    return S


# ---------------------------------------------------------------------------
# signature


@dataclass(frozen=True)
class Signature:
    """Diagonal inner product on V, four signs with at most one -1; s = sign det(eta)."""

    eta_diag: tuple

    def __post_init__(self):
        d = tuple(self.eta_diag)
        if len(d) != 4 or any(x not in (1, -1) for x in d) or d.count(-1) > 1:
            raise ValueError("eta_diag must be four signs +-1 with at most one -1")

    @property
    def eta(self) -> np.ndarray:
        return np.array(self.eta_diag, dtype=float)

    @property
    def s(self) -> int:
        return int(np.prod(self.eta_diag))

    @property
    def name(self) -> str:
        return "euclidean" if self.s == 1 else "lorentzian"


EUCLIDEAN = Signature((1, 1, 1, 1))
LORENTZIAN = Signature((1, 1, 1, -1))


def signature_from_name(name: str) -> Signature:
    try:
        return {"euclidean": EUCLIDEAN, "lorentzian": LORENTZIAN}[name.lower()]
    except KeyError:
        raise ValueError(f"unknown signature {name!r}") from None


def wedge_comps(k: int, m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component-level wedge, broadcasting over leading axes."""
    if k + m > 4:
        raise ValueError("grade exceeds 4")
    return bilinear(product_tensor(0, 0, k, m), a, b)


# ---------------------------------------------------------------------------
# Tr, Hodge star, bracket, action


def tr_quad(q: np.ndarray) -> np.ndarray:
    """Volume pairing on Lambda^4 V, normalised so Tr(u1^u2^u3^u4) = +1."""
    q = np.asarray(q)
    return q[..., 0]


@lru_cache(maxsize=None)
def star2_matrix(sig: Signature) -> np.ndarray:
    """Integer matrix of the Hodge star on bivector components, built on first use, read-only.

    star(u_i^u_j) = 1/2 eps_{ijkl} eta^{kk} eta^{ll} u_k^u_l, so the entry at
    (kl, ij) is the Tr Gram entry eps_{ijkl} weighted by eta_k eta_l of its
    row pair.
    """
    weights = [sig.eta_diag[k] * sig.eta_diag[l] for k, l in PAIRS]
    out = np.array(weights)[:, None] * wedge_signs(4, 2, 2)[:, :, 0]
    out.flags.writeable = False
    return out


def hodge_star2(b: np.ndarray, sig: Signature) -> np.ndarray:
    """Internal Hodge star on bivector components; star o star = s * id."""
    return np.asarray(b) @ star2_matrix(sig).T


def _bracket_tensor(sig: Signature) -> np.ndarray:
    """C[I,J,K] of the bracket, as the derivation [a, x ^ y] = (a.x) ^ y + x ^ (a.y).

    This is [A,B]^{rs} = A^{rm} eta_{mn} B^{ns} - (A <-> B) on basis bivectors.
    """
    W = wedge_signs(4, 1, 1)
    return np.einsum("klJ,Iko,olK->IJK", W, _action_tensor(sig), W)


def bracket2(a: np.ndarray, b: np.ndarray, sig: Signature) -> np.ndarray:
    """so(eta) bracket on bivector components (broadcasts over leading axes)."""
    return bilinear(product_tensor(0, 0, 2, 2, sig), a, b)


def _action_tensor(sig: Signature) -> np.ndarray:
    """act[I,j,k]: (b_I . u_j)^k with (a.v)^k = a^{kj} eta_{jj} v^j."""
    return np.einsum("kjI,j->Ijk", wedge_signs(4, 1, 1), np.array(sig.eta_diag))


def act_on_vector(a: np.ndarray, v: np.ndarray, sig: Signature) -> np.ndarray:
    """so(eta) module action of a bivector on a vector."""
    return bilinear(product_tensor(0, 0, 2, 1, sig), a, v)


# ---------------------------------------------------------------------------
# the contraction kernel: every wedge, bracket and action product goes here

#: sites per block of every per-site kernel (this one, `inv3`, Lambda^2 P, Gamma(ebar), the
#: connection split's gauge term, the phi_e screen): the per-block intermediates stay a few MB
SITE_BLOCK = 2048


def site_blocks(n: int):
    """Slices of `SITE_BLOCK` consecutive sites covering range(n)."""
    return (slice(s, s + SITE_BLOCK) for s in range(0, n, SITE_BLOCK))


@lru_cache(maxsize=None)
def product_tensor(p: int, q: int, k: int, m: int, sig: Signature | None = None) -> np.ndarray:
    """Combined structure tensor T[(a,i), (b,j), (c,o)] of a pointwise product.

    The first factor is a p-form with Lambda^k values, the second a q-form with
    Lambda^m values.  T is the coordinate wedge signs times the fiber wedge
    (sig None) or, for k = 2 and a signature, the so(eta) action on Lambda^m
    (m = 1: on vectors, m = 2: the bracket).  Each axis is flattened to
    (form component, fiber component); the tensor is built on first use and
    is read-only.
    """
    if sig is None:
        F = wedge_signs(4, k, m)
    elif k == 2 and m in (1, 2):
        F = _action_tensor(sig) if m == 1 else _bracket_tensor(sig)
    else:
        raise ValueError("the action is implemented on vector/bivector values")
    C = wedge_signs(3, p, q)
    T = np.einsum("abc,ijo->aibjco", C, F).reshape(
        C.shape[0] * F.shape[0], C.shape[1] * F.shape[1], C.shape[2] * F.shape[2]
    )
    T.flags.writeable = False
    return T


#: plans of the read-only structure tensors, keyed by the array that owns their memory
#: and the view's layout, so a transposed view made at each call finds its plan; the
#: oldest plan leaves first
_PLANS: dict = {}
_PLAN_LIMIT = 64


def _build_plan(T: np.ndarray):
    """(a, b, S): the nonzero (a, b) pairs of T, ordered by output, and S[o, k] = T[a_k, b_k, o]."""
    a, b = np.nonzero(T.any(axis=2))
    order = np.argsort((T[a, b] != 0).argmax(axis=1), kind="stable")
    a, b = a[order], b[order]
    return a, b, np.ascontiguousarray(T[a, b].T)


def _plan(T: np.ndarray):
    """The plan of T, cached when T is read-only and a view of all of its owner's entries,
    which its shape and strides then fix."""
    owner = T if T.base is None else T.base
    if T.flags.writeable or getattr(owner, "size", None) != T.size:
        return _build_plan(T)
    key = (id(owner), T.shape, T.strides)
    hit = _PLANS.get(key)
    if hit is None:
        if len(_PLANS) >= _PLAN_LIMIT:
            del _PLANS[next(iter(_PLANS))]
        hit = _PLANS[key] = (owner, _build_plan(T))   # the owner is held: its id stays its own
    return hit[1]


def bilinear(T: np.ndarray, x, y) -> np.ndarray:
    """sum_ab T[a, b, o] x[..., a] y[..., b], broadcasting over leading axes.

    The signed-gather kernel.  A structure tensor is a signed selection (entries
    +-1, at most one nonzero a per (b, o)), so only its nnz nonzero (a, b) pairs
    are multiplied: per block of sites, x and y are copied to component rows,
    the planned rows are gathered and multiplied into P (nnz, sites), and one
    S @ P with the (O, nnz) entry matrix S of the plan sums them into the
    outputs, written as (S @ P)^T straight into the result.  One path for
    floats and integers (integer operands stay exact).
    """
    x = np.asarray(x)
    y = np.asarray(y)
    A, B, O = T.shape
    if x.shape[:-1] != y.shape[:-1]:
        lead = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
        x, y = np.broadcast_to(x, lead + (A,)), np.broadcast_to(y, lead + (B,))
    lead = x.shape[:-1]
    dtype = np.result_type(x, y, T)
    x = x.reshape(-1, A).astype(dtype, copy=False)
    y = y.reshape(-1, B).astype(dtype, copy=False)
    a, b, S = _plan(T)
    S = S.astype(dtype, copy=False)
    out = np.empty((x.shape[0], O), dtype=dtype)
    for blk in site_blocks(x.shape[0]):
        P = x[blk].T.take(a, axis=0)
        P *= y[blk].T.take(b, axis=0)
        np.matmul(P.T, S.T, out=out[blk])
    return out.reshape(lead + (O,))


def bilinear_matrix(T: np.ndarray, y) -> np.ndarray:
    """Matrix M[..., o, a] of x -> bilinear(T, x, y) for a fixed y (integers stay exact)."""
    A, B, O = T.shape
    y = np.asarray(y)
    M = y.reshape(-1, B) @ T.transpose(1, 2, 0).reshape(B, O * A)
    return M.reshape(y.shape[:-1] + (O, A))


#: Gram matrix G_IJ = Tr[b_I ^ b_J] of the Tr pairing on Lambda^2 V
TR_GRAM2 = wedge_signs(4, 2, 2)[:, :, 0].astype(float)


# ---------------------------------------------------------------------------
# Barbero-Immirzi twist


def t_gamma(b: np.ndarray, gamma: float, sig: Signature) -> np.ndarray:
    """Holst twist T_gamma(b) = b + (1/gamma) star b; gamma = inf gives identity."""
    return np.asarray(b) @ t_gamma_endo_matrix(gamma, sig).T


def t_gamma_endo_matrix(gamma: float, sig: Signature) -> np.ndarray:
    """Matrix of the endomorphism T_gamma on the ordered bivector basis."""
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    if np.isinf(gamma):
        return np.eye(6)
    return np.eye(6) + star2_matrix(sig) / gamma


def t_gamma_matrix(gamma: float, sig: Signature):
    """Pairing matrix Ttilde_IJ = Tr[T_gamma(b_I) ^ b_J] and its determinant.

    For the Lorentzian signature det = -(1 + gamma^-2)^3.
    """
    T = t_gamma_endo_matrix(gamma, sig)
    pairing = T.T @ TR_GRAM2
    return pairing, float(np.linalg.det(pairing))


def f_alpha_matrix(alpha: float):
    """Twisted-basis map F_alpha = id + alpha * star (Lorentzian star pattern).

    det F_alpha = (1 + alpha^2)^3; F is singular exactly at alpha = +-i.
    """
    F = np.eye(6) + alpha * star2_matrix(LORENTZIAN)
    return F, float(np.linalg.det(F))


def morphism_residual(gamma: float, sig: Signature) -> float:
    """max over 64 seeded random pairs of ||[T A, T B] - 2 T[A,B]|| / (||A|| ||B||).

    Vanishes iff gamma^2 = s: real gamma can satisfy it only in the Euclidean
    signature.
    """
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    rng = np.random.Generator(np.random.Philox(key=2024))
    worst = 0.0
    for _ in range(64):
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        ta = t_gamma(a, gamma, sig)
        tb = t_gamma(b, gamma, sig)
        r = np.linalg.norm(bracket2(ta, tb, sig) - 2.0 * t_gamma(bracket2(a, b, sig), gamma, sig))
        worst = max(worst, r / (np.linalg.norm(a) * np.linalg.norm(b)))
    return worst
