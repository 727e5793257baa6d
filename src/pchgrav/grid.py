"""Discretized differential forms on the periodic 3-torus.

Fields are sampled sections of Omega^p(T^3, Lambda^k V), stored as arrays of
shape (n, n, n, ncomp_p, dim_k) with antisymmetry-reduced coordinate
components.  Exterior and covariant derivatives use second-order central
differences with periodic wrap, so the discrete d o d vanishes identically
and all derivative residuals converge at order 2 on smooth trig data.

Closed-form trig-polynomial specs (`TrigPoly`, `FieldSpec`) provide both the
sampled values and exact analytic derivatives; the latter are what make
honestly O(h^2) on-shell states possible downstream.
"""

from __future__ import annotations

import base64
import json
import struct
from dataclasses import dataclass

import numpy as np

from . import fiber
from .fiber import GRADE_DIMS, Signature

# coordinate components kept per form degree
COMP_BASIS = {
    0: [()],
    1: [(0,), (1,), (2,)],
    2: [(0, 1), (0, 2), (1, 2)],
    3: [(0, 1, 2)],
}
NCOMP = {p: len(b) for p, b in COMP_BASIS.items()}


# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class Grid3:
    """Periodic n^3 grid on [0,1)^3; n must be even and at least 2."""

    n: int

    def __post_init__(self):
        if self.n < 2 or self.n % 2:
            raise ValueError("grid size must be even and >= 2")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def coords(self):
        x = np.arange(self.n) / self.n
        return np.meshgrid(x, x, x, indexing="ij")


# ---------------------------------------------------------------------------
# closed-form trig specs


@dataclass(frozen=True)
class TrigPoly:
    """Finite sum of amp * cos(2 pi k.x + phase) with integer wavevectors."""

    terms: tuple = ()

    def __post_init__(self):
        for amp, k, ph in self.terms:
            if len(k) != 3 or any(int(ki) != ki for ki in k):
                raise ValueError("non-periodic spec: wavevectors must be integer")

    @staticmethod
    def constant(c: float) -> "TrigPoly":
        if c == 0.0:
            return TrigPoly()
        return TrigPoly(((float(c), (0, 0, 0), 0.0),))

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        return TrigPoly(self.terms + other.terms)

    def eval(self, X, Y, Z):
        out = np.zeros(np.broadcast_shapes(np.shape(X), np.shape(Y), np.shape(Z)))
        for amp, k, ph in self.terms:
            out += amp * np.cos(2 * np.pi * (k[0] * X + k[1] * Y + k[2] * Z) + ph)
        return out

    def deriv(self, axis: int) -> "TrigPoly":
        # d/dx cos(t) = -2 pi k sin(t) = 2 pi k cos(t + pi/2)
        terms = []
        for amp, k, ph in self.terms:
            if k[axis] == 0:
                continue
            terms.append((2 * np.pi * k[axis] * amp, k, ph + np.pi / 2))
        return TrigPoly(tuple(terms))


def harmonic(amp: float, k, phase: float = 0.0) -> TrigPoly:
    return TrigPoly(((float(amp), tuple(int(ki) for ki in k), float(phase)),))


@dataclass(frozen=True)
class FieldSpec:
    """Closed-form spec of a p-form field: one TrigPoly per (comp, fiber) slot."""

    p: int
    grade: int
    polys: tuple  # nested tuple [ncomp][fdim] of TrigPoly

    @staticmethod
    def build(p: int, grade: int, entries: dict) -> "FieldSpec":
        """entries: {(comp_index, fiber_index): TrigPoly}"""
        polys = [
            [entries.get((c, f), TrigPoly()) for f in range(GRADE_DIMS[grade])]
            for c in range(NCOMP[p])
        ]
        return FieldSpec(p, grade, tuple(tuple(row) for row in polys))

    def sample(self, grid: Grid3) -> "FormField":
        X, Y, Z = grid.coords()
        data = np.zeros((grid.n,) * 3 + (NCOMP[self.p], GRADE_DIMS[self.grade]))
        for c in range(NCOMP[self.p]):
            for f in range(GRADE_DIMS[self.grade]):
                data[..., c, f] = self.polys[c][f].eval(X, Y, Z)
        return FormField(grid, self.p, self.grade, data)


def random_field_spec(rng, p, grade, n_modes=2, amp=0.1, kmax=2, base=None) -> FieldSpec:
    """Deterministic random trig spec; `base` adds a constant offset per slot."""
    entries = {}
    for c in range(NCOMP[p]):
        for f in range(GRADE_DIMS[grade]):
            poly = TrigPoly()
            if base is not None:
                poly = poly + TrigPoly.constant(base[c][f] if np.ndim(base) else base)
            for _ in range(n_modes):
                k = tuple(int(v) for v in rng.integers(-kmax, kmax + 1, size=3))
                ph = float(rng.uniform(0, 2 * np.pi))
                poly = poly + harmonic(float(rng.normal()) * amp, k, ph)
            entries[(c, f)] = poly
    return FieldSpec.build(p, grade, entries)


# ---------------------------------------------------------------------------
# fields


@dataclass
class FormField:
    """A p-form on the grid with values in Lambda^grade V."""

    grid: Grid3
    p: int
    grade: int
    data: np.ndarray

    def __post_init__(self):
        expected = (self.grid.n,) * 3 + (NCOMP[self.p], GRADE_DIMS[self.grade])
        if self.data.shape != expected:
            raise ValueError(f"data shape {self.data.shape}, expected {expected}")

    @staticmethod
    def zeros(grid: Grid3, p: int, grade: int) -> "FormField":
        return FormField(grid, p, grade, np.zeros((grid.n,) * 3 + (NCOMP[p], GRADE_DIMS[grade])))

    def copy(self) -> "FormField":
        return FormField(self.grid, self.p, self.grade, self.data.copy())

    def __add__(self, other: "FormField") -> "FormField":
        self._check_compat(other)
        return FormField(self.grid, self.p, self.grade, self.data + other.data)

    def __sub__(self, other: "FormField") -> "FormField":
        self._check_compat(other)
        return FormField(self.grid, self.p, self.grade, self.data - other.data)

    def __mul__(self, c: float) -> "FormField":
        return FormField(self.grid, self.p, self.grade, self.data * c)

    __rmul__ = __mul__

    def _check_compat(self, other: "FormField"):
        if (self.grid.n, self.p, self.grade) != (other.grid.n, other.p, other.grade):
            raise ValueError("incompatible fields")

    def sup_norm(self) -> float:
        return float(np.abs(self.data).max())


def deriv_axis(values: np.ndarray, axis: int, grid: Grid3) -> np.ndarray:
    """Second-order central difference along a grid axis, periodic wrap."""
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2 * grid.h)


def ext_deriv(f: FormField) -> FormField:
    """Discrete exterior derivative; d o d = 0 at machine precision."""
    if f.p >= 3:
        raise ValueError("top form")
    g = f.grid
    out = FormField.zeros(g, f.p + 1, f.grade)
    S = fiber.wedge_signs(3, 1, f.p)      # dx^a ^ (component ci) along component co
    for a in range(3):                    # one axis derivative alive at a time
        d = deriv_axis(f.data, a, g)
        for ci, co in zip(*np.nonzero(S[a])):
            out.data[..., co, :] += S[a, ci, co] * d[..., ci, :]
    return out


def _product(T: np.ndarray, x: FormField, y: FormField, p: int, grade: int) -> FormField:
    """The p-form with Lambda^grade values sum T x y, over flattened (comp, fiber) slots."""
    sites = x.data.shape[:3]
    data = fiber.bilinear(T, x.data.reshape(sites + (-1,)), y.data.reshape(sites + (-1,)))
    return FormField(x.grid, p, grade, data.reshape(sites + (NCOMP[p], GRADE_DIMS[grade])))


def wedge_fields(x: FormField, y: FormField) -> FormField:
    """Wedge of fields: coordinate wedge times fiber wedge (no cross signs)."""
    if x.p + y.p > 3:
        raise ValueError("coordinate degree exceeds 3")
    if x.grade + y.grade > 4:
        raise ValueError("grade exceeds 4")
    T = fiber.product_tensor(x.p, y.p, x.grade, y.grade)
    return _product(T, x, y, x.p + y.p, x.grade + y.grade)


def action_wedge(omega: FormField, f: FormField, sig: Signature) -> FormField:
    """[omega ^ f]: coordinate wedge with the so(eta) action on the values."""
    if omega.grade != 2 or omega.p + f.p > 3:
        raise ValueError("omega must be a bivector-valued form of degree <= 3 - p")
    return _product(fiber.product_tensor(omega.p, f.p, 2, f.grade, sig), omega, f,
                    omega.p + f.p, f.grade)


def cov_deriv(f: FormField, omega: FormField, sig: Signature) -> FormField:
    """d_omega f = d f + [omega ^ f] for vector- or bivector-valued forms."""
    return ext_deriv(f) + action_wedge(omega, f, sig)


def curvature(omega: FormField, sig: Signature) -> FormField:
    """F_omega = d omega + 1/2 [omega ^ omega]."""
    if omega.p != 1 or omega.grade != 2:
        raise ValueError("connection must be a bivector-valued 1-form")
    return ext_deriv(omega) + 0.5 * action_wedge(omega, omega, sig)


def integrate(density: FormField) -> float:
    """Riemann sum of a top-form density, scalar or Lambda^4-valued (Tr reads its one entry)."""
    if density.p != 3 or density.grade not in (0, 4):
        raise ValueError("integrate expects a scalar or volume-valued 3-form")
    return float(density.data[..., 0, 0].sum() * density.grid.h**3)


def t_gamma_field(f: FormField, gamma: float, sig: Signature) -> FormField:
    if f.grade != 2:
        raise ValueError("twist acts on bivector-valued forms")
    T = fiber.t_gamma_endo_matrix(gamma, sig)
    return FormField(f.grid, f.p, 2, f.data @ T.T)


# ---------------------------------------------------------------------------
# coframes


#: a coframe site with det G >= _GRAM_SCREEN (tr G)^3 has sigma_3^2 / sigma_1^2 >= 1e-10
_GRAM_SCREEN = 1e-10

#: the cyclic successors i+1 and i+2 of the indices 0, 1, 2
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def cofactors3(a: np.ndarray) -> np.ndarray:
    """Cofactor matrix of a stack of 3x3 matrices (..., 3, 3), plain products."""
    b, c = a[..., _NEXT, :], a[..., _PREV, :]                   # rows i+1 and i+2
    return b[..., _NEXT] * c[..., _PREV] - b[..., _PREV] * c[..., _NEXT]


class Coframe:
    """Nondegenerate V-valued coframe on the grid, with its signature."""

    def __init__(self, field: FormField, sig: Signature):
        if field.p != 1 or field.grade != 1:
            raise ValueError("coframe must be a vector-valued 1-form")
        self.field = field
        self.sig = sig
        # the eigenvalues of the 3x3 Gram G = e e^T are the squared singular values
        # of e; lambda_min / lambda_max >= det G / (tr G)^3 clears a site for the
        # 1e-12 rule with a margin of 100 far beyond the roundoff of det G, and
        # only the other sites need the spectrum
        G = field.data @ np.swapaxes(field.data, -1, -2)
        tr = G[..., 0, 0] + G[..., 1, 1] + G[..., 2, 2]
        # det G, G's first row against its cofactor row, in site blocks: the whole
        # cofactor matrix at once would need 13 MB of temporaries at 32^3
        sites, det = G.reshape(-1, 3, 3), np.empty(tr.shape)
        for b in fiber.site_blocks(len(sites)):
            det.reshape(-1)[b] = (sites[b, 0] * cofactors3(sites[b])[:, 0]).sum(axis=-1)
        unclear = ~(det >= _GRAM_SCREEN * tr**3)
        if unclear.any():
            sv2 = np.linalg.eigvalsh(G[unclear])
            if np.any(sv2[..., 0] < 1e-12 * sv2[..., 2]):
                raise ValueError("degenerate coframe: third singular value too small")

    @property
    def grid(self) -> Grid3:
        return self.field.grid

    @property
    def data(self) -> np.ndarray:
        return self.field.data


# ---------------------------------------------------------------------------
# serialization (bit-exact round trip)

_MAGIC = b"PCHGRAVF"


def save_field(f: FormField, path, sig: Signature | None = None, meta: dict | None = None,
               fmt: str = "binary"):
    header = {
        "version": 1,
        "n": f.grid.n,
        "period": 1.0,
        "p": f.p,
        "grade": f.grade,
        "signature": sig.name if sig is not None else None,
        "meta": meta or {},
    }
    payload = np.ascontiguousarray(f.data, dtype="<f8").tobytes()
    if fmt == "binary":
        hdr = json.dumps(header, sort_keys=True).encode()
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", len(hdr)))
            fh.write(hdr)
            fh.write(payload)
    elif fmt == "json":
        header["data_b64"] = base64.b64encode(payload).decode("ascii")
        with open(path, "w") as fh:
            json.dump(header, fh, sort_keys=True)
    else:
        raise ValueError(f"unknown field format {fmt!r}")


def load_field(path):
    """Returns (FormField, header dict)."""
    with open(path, "rb") as fh:
        head8 = fh.read(8)
        if head8 == _MAGIC:
            (hlen,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(hlen).decode())
            payload = fh.read()
        else:
            fh.seek(0)
            header = json.loads(fh.read().decode())
            payload = base64.b64decode(header.pop("data_b64"))
    n, p, grade = header["n"], header["p"], header["grade"]
    shape = (n, n, n, NCOMP[p], GRADE_DIMS[grade])
    data = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    # outside numbers enter through field files (config numbers are checked in `config`),
    # so the finiteness scan is here and not in every FormField construction
    if not np.isfinite(data).all():
        raise ValueError("non-finite field values")
    return FormField(Grid3(n), p, grade, data), header
