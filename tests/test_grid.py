"""Discrete exterior calculus on the 3-torus."""

import numpy as np
import pytest

from pchgrav import grid as G
from pchgrav.fiber import EUCLIDEAN, LORENTZIAN
from pchgrav.grid import (
    Coframe,
    FieldSpec,
    FormField,
    Grid3,
    TrigPoly,
    cov_deriv,
    curvature,
    ext_deriv,
    harmonic,
    integrate,
    load_field,
    random_field_spec,
    save_field,
    wedge_fields,
)

RNG = np.random.Generator(np.random.Philox(key=202))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid3(3)
    with pytest.raises(ValueError):
        Grid3(0)
    assert Grid3(8).h == 0.125


def test_trig_spec_rejects_nonperiodic():
    with pytest.raises(ValueError, match="non-periodic"):
        TrigPoly(((1.0, (0.5, 0, 0), 0.0),))


def test_sample_constant_and_sine_values():
    g = Grid3(4)
    const = FieldSpec.build(0, 0, {(0, 0): TrigPoly.constant(2.5)}).sample(g)
    assert np.all(const.data == 2.5)
    # sin(2 pi x) = cos(2 pi x - pi/2) sampled at n = 4: {0, 1, 0, -1}
    f = FieldSpec.build(0, 0, {(0, 0): harmonic(1.0, (1, 0, 0), -np.pi / 2)}).sample(g)
    vals = f.data[:, 0, 0, 0, 0]
    assert np.allclose(vals, [0.0, 1.0, 0.0, -1.0], atol=1e-15)


def test_sampling_is_deterministic():
    g = Grid3(6)
    s1 = random_field_spec(np.random.Generator(np.random.Philox(key=9)), 1, 2)
    s2 = random_field_spec(np.random.Generator(np.random.Philox(key=9)), 1, 2)
    assert np.array_equal(s1.sample(g).data, s2.sample(g).data)


def test_d_of_constant_vanishes():
    g = Grid3(8)
    const = FieldSpec.build(1, 1, {(0, 0): TrigPoly.constant(1.0)}).sample(g)
    assert ext_deriv(const).sup_norm() == 0.0


@pytest.mark.parametrize("p,grade", [(0, 0), (0, 2), (1, 1), (1, 2)])
def test_discrete_d_squared_is_zero(p, grade):
    g = Grid3(8)
    f = random_field_spec(RNG, p, grade, n_modes=2, amp=0.7).sample(g)
    dd = ext_deriv(ext_deriv(f))
    assert dd.sup_norm() <= 1e-13


def test_ext_deriv_convergence_order2():
    # d applied to sin(2 pi x) dx^2 against the exact derivative
    f = harmonic(1.0, (1, 0, 0), -np.pi / 2)
    spec = FieldSpec.build(1, 0, {(1, 0): f})
    errs = {}
    for n in (8, 16):
        g = Grid3(n)
        dF = ext_deriv(spec.sample(g))
        exact = f.deriv(0).eval(*g.coords())
        errs[n] = np.abs(dF.data[..., 0, 0] - exact).max()
    ratio = errs[8] / errs[16]
    assert 3.2 <= ratio <= 4.8


def test_top_form_derivative_rejected():
    g = Grid3(4)
    f = FormField.zeros(g, 3, 0)
    with pytest.raises(ValueError, match="top form"):
        ext_deriv(f)


def test_cov_deriv_reduces_to_d_at_zero_connection():
    g = Grid3(8)
    f = random_field_spec(RNG, 1, 1, n_modes=1, amp=0.5).sample(g)
    zero = FormField.zeros(g, 1, 2)
    assert (cov_deriv(f, zero, LORENTZIAN) - ext_deriv(f)).sup_norm() == 0.0


def test_cov_deriv_constant_fields_pure_algebra():
    from pchgrav import fiber

    g = Grid3(4)
    fvec = RNG.normal(size=4)
    wvec = RNG.normal(size=6)
    f = FormField(g, 0, 1, np.broadcast_to(fvec, (4, 4, 4, 1, 4)).copy())
    om = FormField(g, 1, 2, np.broadcast_to(
        np.stack([wvec, 2 * wvec, -wvec]), (4, 4, 4, 3, 6)).copy())
    d = cov_deriv(f, om, LORENTZIAN)
    expect0 = fiber.act_on_vector(wvec, fvec, LORENTZIAN)
    assert np.allclose(d.data[..., 0, :], expect0, atol=1e-14)


def test_action_derivation_on_fiber_wedge():
    # the adjoint action extends the vector action as a derivation:
    # [w, x ^ y] = (w.x) ^ y + x ^ (w.y)
    from pchgrav import fiber

    for sig in (EUCLIDEAN, LORENTZIAN):
        for _ in range(40):
            w = RNG.normal(size=6)
            x, y = RNG.normal(size=4), RNG.normal(size=4)
            lhs = fiber.bracket2(w, fiber.wedge_comps(1, 1, x, y), sig)
            rhs = (fiber.wedge_comps(1, 1, fiber.act_on_vector(w, x, sig), y)
                   + fiber.wedge_comps(1, 1, x, fiber.act_on_vector(w, y, sig)))
            assert np.abs(lhs - rhs).max() <= 1e-12


def test_leibniz_on_shellable_identity():
    # d_w(e ^ e) = 2 d_w e ^ e for constant fields (exact pointwise algebra)
    g = Grid3(4)
    evec = RNG.normal(size=(3, 4))
    wvec = RNG.normal(size=(3, 6))
    e = FormField(g, 1, 1, np.broadcast_to(evec, (4, 4, 4, 3, 4)).copy())
    om = FormField(g, 1, 2, np.broadcast_to(wvec, (4, 4, 4, 3, 6)).copy())
    ee = wedge_fields(e, e)
    lhs = G.action_wedge(om, ee, LORENTZIAN)
    dwe = cov_deriv(e, om, LORENTZIAN)
    rhs = 2.0 * wedge_fields(dwe, e)
    # reorder: for V-valued forms (p=2,k=1) ^ (p=1,k=1), d_w e ^ e = e ^ d_w e
    assert (lhs - rhs).sup_norm() <= 1e-12 * max(1.0, lhs.sup_norm())


def test_curvature_zero_and_constant_connection():
    from pchgrav import fiber

    g = Grid3(4)
    zero = FormField.zeros(g, 1, 2)
    assert curvature(zero, LORENTZIAN).sup_norm() == 0.0
    w = RNG.normal(size=(3, 6))
    om = FormField(g, 1, 2, np.broadcast_to(w, (4, 4, 4, 3, 6)).copy())
    F = curvature(om, LORENTZIAN)
    for P, (a, b) in enumerate(G.COMP_BASIS[2]):
        expect = fiber.bracket2(w[a], w[b], LORENTZIAN)
        assert np.allclose(F.data[..., P, :], expect, atol=1e-14)


def test_bianchi_residual_converges_order2():
    spec = random_field_spec(np.random.Generator(np.random.Philox(key=33)),
                             1, 2, n_modes=1, amp=0.2, kmax=1)
    errs = {}
    for n in (8, 16):
        g = Grid3(n)
        om = spec.sample(g)
        F = curvature(om, LORENTZIAN)
        errs[n] = cov_deriv(F, om, LORENTZIAN).sup_norm()
    ratio = errs[8] / errs[16]
    assert 3.2 <= ratio <= 4.8


def test_integration_exactness():
    g = Grid3(8)
    one = FieldSpec.build(3, 0, {(0, 0): TrigPoly.constant(1.0)}).sample(g)
    assert abs(integrate(one) - 1.0) <= 1e-14
    sine = FieldSpec.build(3, 0, {(0, 0): harmonic(1.0, (1, 0, 0), -np.pi / 2)}).sample(g)
    assert abs(integrate(sine)) <= 1e-13
    # discrete orthogonality below the Nyquist band: analytic oracle
    for k1, p1, k2, p2 in [((1, 0, 0), 0.3, (1, 0, 0), 1.1), ((2, 1, 0), 0.2, (2, 1, 0), 0.9),
                           ((1, 0, 0), 0.0, (0, 1, 0), 0.0)]:
        prod = FieldSpec.build(3, 0, {(0, 0): harmonic(1.0, k1, p1)}).sample(g)
        prod.data *= FieldSpec.build(3, 0, {(0, 0): harmonic(1.0, k2, p2)}).sample(g).data
        expect = 0.5 * np.cos(p1 - p2) if k1 == k2 else 0.0
        assert abs(integrate(prod) - expect) <= 1e-12


def test_integral_of_exact_form_vanishes():
    g = Grid3(8)
    f = random_field_spec(RNG, 2, 4, n_modes=2, amp=0.8).sample(g)
    df = ext_deriv(f)
    assert abs(integrate(df)) <= 1e-12


def test_cov_deriv_linearity():
    g = Grid3(6)
    om = random_field_spec(RNG, 1, 2, n_modes=1, amp=0.4).sample(g)
    f1 = random_field_spec(RNG, 1, 1, n_modes=1, amp=0.5).sample(g)
    f2 = random_field_spec(RNG, 1, 1, n_modes=1, amp=0.5).sample(g)
    lhs = cov_deriv(f1 + f2, om, EUCLIDEAN)
    rhs = cov_deriv(f1, om, EUCLIDEAN) + cov_deriv(f2, om, EUCLIDEAN)
    assert (lhs - rhs).sup_norm() <= 1e-13


def test_coframe_nondegeneracy_guard():
    g = Grid3(4)
    data = np.zeros((4, 4, 4, 3, 4))
    data[..., 0, 0] = 1.0
    data[..., 1, 1] = 1.0
    data[..., 2, 0] = 1.0   # rank 2
    with pytest.raises(ValueError, match="degenerate"):
        Coframe(FormField(g, 1, 1, data), LORENTZIAN)


@pytest.mark.parametrize("ratio,degenerate", [(0.99e-6, True), (1.01e-6, False)])
def test_coframe_rank_rule_at_its_threshold(ratio, degenerate):
    # one site with singular values (2, 0.7, 2 ratio), rotated on both sides;
    # the rule is sigma_3 < 1e-6 sigma_1, read from the Gram e e^T
    U = np.linalg.qr(RNG.normal(size=(3, 3)))[0]
    V = np.linalg.qr(RNG.normal(size=(4, 4)))[0]
    data = np.broadcast_to(np.eye(3, 4), (2, 2, 2, 3, 4)).copy()
    data[1, 0, 1] = U @ np.diag([2.0, 0.7, 2.0 * ratio]) @ V[:3]
    field = FormField(Grid3(2), 1, 1, data)
    if degenerate:
        with pytest.raises(ValueError, match="degenerate"):
            Coframe(field, LORENTZIAN)
    else:
        Coframe(field, LORENTZIAN)


def test_coframe_screen_decides_as_the_spectrum():
    # sigma_3 / sigma_1 log-uniform around the 1e-6 threshold and across the
    # det G / (tr G)^3 screen; the reference rule reads the full spectrum
    rng = np.random.Generator(np.random.Philox(key=2027))
    refused = 0
    for ratio in 10.0 ** rng.uniform(-6.3, -4.5, size=120):
        U = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        V = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        data = np.broadcast_to(np.eye(3, 4), (2, 2, 2, 3, 4)).copy()
        data[0, 1, 1] = U @ np.diag([1.5, rng.uniform(0.2, 1.5), 1.5 * ratio]) @ V[:3]
        sv2 = np.linalg.eigvalsh(data @ np.swapaxes(data, -1, -2))
        expect = bool(np.any(sv2[..., 0] < 1e-12 * sv2[..., 2]))
        field = FormField(Grid3(2), 1, 1, data)
        if expect:
            refused += 1
            with pytest.raises(ValueError, match="degenerate"):
                Coframe(field, EUCLIDEAN)
        else:
            Coframe(field, EUCLIDEAN)
    assert 10 <= refused <= 110


def _det3_first_row(a):
    """det of a stack of 3x3 matrices, expanded along the first row: the expansion the
    coframe screen used before it took the cofactor row of `cofactors3`."""
    return (a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
            - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
            + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0]))


def test_gram_determinant_from_the_cofactor_row_is_bit_identical():
    rng = np.random.Generator(np.random.Philox(key=2028))
    e = rng.normal(size=(2, 1000, 3, 4))
    e[1, :, 2] = e[1, :, 0] - 0.5 * e[1, :, 1] + 1e-7 * e[1, :, 2]    # nearly rank 2
    gram = e @ np.swapaxes(e, -1, -2)
    det = (gram[..., 0, :] * G.cofactors3(gram)[..., 0, :]).sum(axis=-1)
    assert np.array_equal(det, _det3_first_row(gram))


def test_field_io_bit_exact(tmp_path):
    g = Grid3(6)
    f = random_field_spec(RNG, 2, 2, n_modes=2, amp=0.9).sample(g)
    for fmt, name in (("binary", "f.pchf"), ("json", "f.json")):
        path = tmp_path / ("dir with spaces") / name
        path.parent.mkdir(exist_ok=True)
        save_field(f, path, sig=LORENTZIAN, meta={"seed": 5}, fmt=fmt)
        back, header = load_field(path)
        assert np.array_equal(back.data, f.data)
        assert (back.p, back.grade, back.grid.n) == (2, 2, 6)
        assert header["signature"] == "lorentzian" and header["meta"]["seed"] == 5
