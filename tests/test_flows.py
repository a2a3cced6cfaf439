import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import unipotent_oracle
from adapted_oracle import solve
from conftest import (VALID_IDS, corpus_entry, moving_weights, point,
                      sample_element, wb_for)
from solvlie.functionals import (Functional, NotUnipotentError,
                                 RealityError, exp_h_coadjoint,
                                 exp_unipotent_coadjoint, sample_functional)
from solvlie.gaussian import GaussianRational as G
from work_budget import Work


def _nilpotent_exp_oracle(spec, x_vec, l):
    """Independent oracle: transpose-series of ad(x) applied term by term."""
    m = unipotent_oracle.ad_matrix(spec, x_vec)
    dim = spec.dim
    vals = list(l.values)
    out = list(vals)
    current = list(vals)
    k = 1
    while True:
        nxt = [sum(Fraction(-m[p][q]) * current[p] for p in range(dim))
               for q in range(dim)]
        if all(v == 0 for v in nxt):
            break
        current = [v / k for v in nxt]
        # careful: build (-ad x)^k / k! applied to the transpose step by step
        out = [a + b for a, b in zip(out, current)]
        k += 1
        if k > dim + 2:
            raise AssertionError("series did not terminate")
    return out


def test_unipotent_flow_heisenberg_hand_values():
    wb = wb_for("heisenberg-2param")
    spec = wb.spec
    l = point(wb, Z=3)
    t = Fraction(5, 2)
    x = [G(0)] * spec.dim
    x[spec.index("X")] = G(t)
    moved = exp_unipotent_coadjoint(spec, x, l)
    # l'(Y) = l(Y - t[X,Y]) = -t*l(Z); l'(Z) unchanged; l'(X) unchanged
    assert moved.values[spec.index("Y")] == -t * 3
    assert moved.values[spec.index("Z")] == 3
    assert moved.values[spec.index("X")] == 0


def test_unipotent_flow_matches_series_oracle():
    rng = random.Random(21)
    for entry_id in ("heisenberg-2param", "free-two-step",
                     "filiform-dilations-repaired"):
        wb = wb_for(entry_id)
        spec = wb.spec
        for _ in range(10):
            l = sample_functional(wb.canonical_basis, rng, support="g")
            x = sample_element(spec, rng, bound=3, support="n")
            moved = exp_unipotent_coadjoint(spec, x, l)
            oracle = _nilpotent_exp_oracle(spec, x, l)
            assert list(moved.values) == oracle


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_unipotent_flow_matches_matrix_oracle(entry_id):
    # the vector series against the dense matrix e^{-ad x}: identical on
    # exact points, within rounding on float points
    rng = random.Random(25 + VALID_IDS.index(entry_id))
    wb = wb_for(entry_id)
    spec = wb.spec
    for k in range(8):
        l = sample_functional(wb.canonical_basis, rng, support="g",
                              bound=(2, 9)[k % 2])
        x = sample_element(spec, rng, bound=3, support="n")
        new = exp_unipotent_coadjoint(spec, x, l)
        old = unipotent_oracle.exp_unipotent_coadjoint(x, l)
        assert new.exact and new.values == old.values
        lf = l.to_float()
        new = exp_unipotent_coadjoint(spec, x, lf)
        old = unipotent_oracle.exp_unipotent_coadjoint(x, lf)
        for a, b in zip(new.values, old.values):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-9)


def test_unipotent_flow_identity_and_inverse():
    rng = random.Random(22)
    wb = wb_for("free-two-step")
    spec = wb.spec
    zero = [G(0)] * spec.dim
    for _ in range(10):
        l = sample_functional(wb.canonical_basis, rng, support="g")
        assert list(exp_unipotent_coadjoint(spec, zero, l).values) == list(l.values)
        x = sample_element(spec, rng, bound=4, support="n")
        neg = [-c for c in x]
        back = exp_unipotent_coadjoint(spec, neg, exp_unipotent_coadjoint(spec, x, l))
        assert list(back.values) == list(l.values)


def test_unipotent_flow_central_element_acts_trivially():
    # Z1 is central in the whole of g for the free two-step example
    wb = wb_for("free-two-step")
    spec = wb.spec
    rng = random.Random(23)
    z = [G(0)] * spec.dim
    z[spec.index("Z1")] = G(7)
    for _ in range(5):
        l = sample_functional(wb.canonical_basis, rng, support="g")
        assert list(exp_unipotent_coadjoint(spec, z, l).values) == list(l.values)


def test_unipotent_rejects_h_component():
    wb = wb_for("heisenberg-2param")
    spec = wb.spec
    x = [G(0)] * spec.dim
    x[spec.index("A")] = G(1)
    with pytest.raises(NotUnipotentError):
        exp_unipotent_coadjoint(spec, x, point(wb, Z=1))


def test_h_flow_scales_by_exp_minus_weight():
    wb = wb_for("heisenberg-2param")
    spec = wb.spec
    l = point(wb, Z=1)
    a = [0.0] * spec.dim
    t = 0.8
    a[spec.index("A")] = t
    moved = exp_h_coadjoint(spec, a, l, mode="float")
    assert moved.values[spec.index("Z")] == pytest.approx(math.exp(-t), rel=1e-12)


def test_h_flow_spiral_rotates_phase():
    wb = wb_for("spiral-heisenberg")
    spec = wb.spec
    l = point(wb, Z1=2)           # value 2 on the complex pair coordinate
    t = math.log(2.0)
    a = [0.0] * spec.dim
    a[spec.index("A")] = t
    moved = exp_h_coadjoint(spec, a, l, mode="float")
    z = complex(moved.z(1))
    assert abs(abs(z) - 1.0) < 1e-12
    assert math.isclose(math.atan2(z.imag, z.real), -t, rel_tol=1e-9)


def test_h_flow_zero_is_identity_exact():
    wb = wb_for("heisenberg-2param")
    spec = wb.spec
    l = point(wb, Z=5, Y=1, X=2)
    a = [G(0)] * spec.dim
    assert moving_weights(l, a) == []
    out = exp_h_coadjoint(spec, a, l)
    assert not out.exact
    assert list(out.values) == [float(v) for v in l.values]


def test_h_flow_stabilizer_fixes_section_points_exactly():
    # gamma_j(B) = 0 on every adapted j where l(Z_j) != 0, exactly, so the
    # flow along the little-group direction moves nothing
    wb = wb_for("heisenberg-2param")
    spec = wb.spec
    l = point(wb, Z=9)
    a = [G(0)] * spec.dim
    a[spec.index("B")] = G(3)     # the little-group direction
    assert moving_weights(l, a) == []
    out = exp_h_coadjoint(spec, a, l)
    assert list(out.values) == [float(v) for v in l.values]


def test_h_flow_moves_a_coordinate_of_nonzero_weight():
    # gamma_1(A) = 1 and l(Z_1) = l(Z) = 1: the flow scales it by e^{-1}
    wb = wb_for("heisenberg-2param")
    spec = wb.spec
    l = point(wb, Z=1)
    a = [G(0)] * spec.dim
    a[spec.index("A")] = G(1)
    assert moving_weights(l, a) == [(1, G(1))]
    moved = exp_h_coadjoint(spec, a, l)
    assert moved.values[spec.index("Z")] == pytest.approx(math.exp(-1),
                                                          rel=1e-12)


def test_h_flow_has_no_exact_mode():
    # the flow is a float map: "float" is the one mode, and the default
    wb = wb_for("heisenberg-2param")
    spec = wb.spec
    a = [G(0)] * spec.dim
    l = point(wb, Z=1)
    for mode in ("exact", "Float", None):
        with pytest.raises(ValueError, match="mode must be 'float'"):
            exp_h_coadjoint(spec, a, l, mode=mode)
    assert exp_h_coadjoint(spec, a, l, mode="float").values == \
        exp_h_coadjoint(spec, a, l).values


def test_h_flow_preserves_h_values():
    wb = wb_for("heisenberg-2param")
    spec = wb.spec
    l = point(wb, Z=1, A=4, B=-2)
    a = [0.0] * spec.dim
    a[spec.index("A")] = 1.5
    moved = exp_h_coadjoint(spec, a, l, mode="float")
    assert moved.values[spec.index("A")] == pytest.approx(4.0)
    assert moved.values[spec.index("B")] == pytest.approx(-2.0)


def test_reality_constraint_survives_flows():
    rng = random.Random(24)
    wb = wb_for("spiral-heisenberg")
    spec = wb.spec
    for _ in range(10):
        l = sample_functional(wb.canonical_basis, rng, support="n")
        x = sample_element(spec, rng, bound=3, support="n")
        moved = exp_unipotent_coadjoint(spec, x, l)
        for j in range(1, wb.canonical_basis.dim + 1):
            s = wb.canonical_basis.sigma[j]
            assert moved.z(j).conjugate() == moved.z(s)


def _real_point_values(basis, rng):
    """Adapted values of a real functional: z_sigma(j) = conj z_j."""
    z = [G(0)] * basis.dim
    for j in range(1, basis.dim + 1):
        s = basis.sigma[j]
        if s == j:
            z[j - 1] = G(rng.randint(-9, 9))
        elif s > j:
            z[j - 1] = G(rng.randint(-9, 9), rng.randint(-9, 9))
            z[s - 1] = z[j - 1].conjugate()
    return z


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_from_adapted_matches_solve_route(entry_id):
    # the stored block inverses against one solve of the basis matrix
    rng = random.Random(26 + VALID_IDS.index(entry_id))
    wb = wb_for(entry_id)
    for basis in (wb.basis, wb.canonical_basis):
        rows = [list(v) for v in basis.vectors]
        for _ in range(5):
            z = _real_point_values(basis, rng)
            x = solve(rows, z)
            assert all(xi.is_real() for xi in x)
            f = Functional.from_adapted(basis, z)
            assert f.values == tuple(xi.re for xi in x)
            assert [f.z(j) for j in range(1, basis.dim + 1)] == z
        # an imaginary part on a real position, or a broken conjugate pair
        z = _real_point_values(basis, rng)
        for j in range(1, basis.dim + 1):
            bad = list(z)
            bad[j - 1] = bad[j - 1] + (G(0, 1) if basis.sigma[j] == j else G(1))
            with pytest.raises(RealityError):
                Functional.from_adapted(basis, bad)


def test_one_eigenbasis_per_spec():
    # the dilation flow builds the eigen rows and the inverse of their n
    # block once per spec, across flows of float and exact points
    from solvlie import algebra
    from solvlie.workbench import Workbench

    with Work() as work:
        work.calls(algebra, "eigenbasis")
        wb = Workbench(corpus_entry("heisenberg-2param").spec())
        spec, basis = wb.spec, wb.canonical_basis
        rng = random.Random(27)
        for t in (0.5, -1.25, 2.0):
            l = sample_functional(basis, rng, support="g")
            a = [0.0] * spec.dim
            a[spec.index("A")] = t
            exp_h_coadjoint(spec, a, l, mode="float")
        b = [G(0)] * spec.dim
        b[spec.index("B")] = G(3)
        exp_h_coadjoint(spec, b, point(wb, Z=9))
    assert work["eigenbasis"] == 1


def test_eigen_rows_inverted_once_per_spec(monkeypatch):
    # a spec with no hint: the basis construction splits by weight through
    # the same inverse of the eigen rows that the dilation flow reads (on
    # this spec the n and h blocks of the basis differ from the eigen rows,
    # so their own inversions are not counted)
    from solvlie import adapted, algebra

    spec = corpus_entry("anisotropic-heisenberg").spec()
    assert spec.adaptable_hint is None
    inverted = []
    for module in (adapted, algebra):
        monkeypatch.setattr(module, "invert",
                            lambda rows, real=module.invert:
                            inverted.append([list(r) for r in rows]) or real(rows))
    basis = adapted.build_adaptable_basis(spec)
    a = [0.0] * spec.n_dim + [0.75] * spec.h_dim
    exp_h_coadjoint(spec, a, sample_functional(basis, random.Random(28)),
                    mode="float")
    eig_rows = [list(r[:spec.n_dim]) for r in spec.eigenbasis().rows]
    assert [list(v[:spec.n_dim]) for v in basis.nvecs] != eig_rows
    assert [list(v[spec.n_dim:]) for v in basis.hvecs] != eig_rows
    assert inverted.count(eig_rows) == 1


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_z_is_value_on_the_adapted_vector(entry_id):
    # the sparse read of the adapted values gives l(Z_j) exactly, at exact
    # points and at float points moved by the dilation flow
    rng = random.Random(29 + VALID_IDS.index(entry_id))
    wb = wb_for(entry_id)
    spec, basis = wb.spec, wb.canonical_basis
    for k in range(4):
        l = sample_functional(basis, rng, support="g", bound=(1, 9)[k % 2])
        points = [l]
        if spec.h_dim:
            a = [0.0] * spec.n_dim + [rng.uniform(-1.5, 1.5)
                                      for _ in range(spec.h_dim)]
            points.append(exp_h_coadjoint(spec, a, l, mode="float"))
        for f in points:
            want = [f.value(basis.vector(j)) for j in range(1, basis.dim + 1)]
            assert [f.z(j) for j in range(1, basis.dim + 1)] == want
            assert f.zvalues() == want


def test_value_at_an_exact_point_is_exact_for_any_exact_vector():
    # the point picks the mode: int, Fraction and GaussianRational entries
    # give the same exact value, and only a float point evaluates in complex
    wb = wb_for("heisenberg-2param")
    spec = wb.spec
    l = point(wb, Z=3, Y=Fraction(1, 2), A=-2)
    coords = {"Z": 2, "Y": -4, "A": 1}
    vec = [0] * spec.dim
    for lab, c in coords.items():
        vec[spec.index(lab)] = c
    for entries in (vec, [Fraction(c) for c in vec], [G(c) for c in vec]):
        got = l.value(entries)
        assert isinstance(got, G) and got == G(2)
    got = l.to_float().value(vec)
    assert isinstance(got, complex) and got == 2


@pytest.mark.parametrize("entry_id", [i for i in VALID_IDS
                                      if corpus_entry(i).spec().h_dim])
def test_h_flow_sparse_rows_equal_dense_evaluation(entry_id):
    # the flow reads y_i = l(row_i) from the nonzero entries of each eigen
    # row; the dense evaluation over every entry moves l to the same values
    rng = random.Random(480 + VALID_IDS.index(entry_id))
    wb = wb_for(entry_id)
    spec, basis = wb.spec, wb.canonical_basis
    nd, hd = spec.n_dim, spec.h_dim
    eig = spec.eigenbasis()
    for k in range(10):
        l = sample_functional(basis, rng, support="g", bound=(2, 9)[k % 2])
        if k % 3 == 2:  # a float point with non-integer values
            l = exp_h_coadjoint(spec, [0.0] * nd + [0.3] * hd, l, mode="float")
        a = [0.0] * nd + [rng.uniform(-1.5, 1.5) for _ in range(hd)]
        moved = exp_h_coadjoint(spec, a, l, mode="float")
        lf = l.to_float()
        y = [lf.value(r) * cmath.exp(-sum((complex(a[nd + t]) * complex(ws[t])
                                           for t in range(hd)), 0j))
             for r, ws in zip(eig.rows, eig.weights)]
        x = [sum(c * yi for c, yi in zip(row, y)) for row in eig.inverse]
        assert moved.values[:nd] == tuple(v.real for v in x)


@pytest.mark.parametrize("entry_id", [i for i in VALID_IDS
                                      if corpus_entry(i).spec().h_dim])
def test_h_flow_matches_numpy_solve(entry_id):
    # x = inverse y against an independent float solve of the eigen system
    # rows x = y, with y_i = l(row_i) e^{-gamma_i(a)}
    rng = random.Random(610 + VALID_IDS.index(entry_id))
    wb = wb_for(entry_id)
    spec, basis = wb.spec, wb.canonical_basis
    nd, hd = spec.n_dim, spec.h_dim
    eig = spec.eigenbasis()
    rows = np.array([[complex(r[m]) for m in range(nd)] for r in eig.rows])
    for k in range(6):
        l = sample_functional(basis, rng, support="g", bound=(2, 9)[k % 2])
        a = [0.0] * nd + [rng.uniform(-1.5, 1.5) for _ in range(hd)]
        moved = exp_h_coadjoint(spec, a, l, mode="float")
        y = [complex(l.value(r)) *
             cmath.exp(-sum(a[nd + t] * complex(ws[t]) for t in range(hd)))
             for r, ws in zip(eig.rows, eig.weights)]
        x = np.linalg.solve(rows, np.array(y))
        scale = max([1.0] + [abs(v) for v in x])
        for m in range(nd):
            assert abs(moved.values[m] - x[m].real) <= 1e-12 * scale
            assert abs(x[m].imag) <= 1e-12 * scale
        assert moved.values[nd:] == tuple(float(v) for v in l.values[nd:])


def test_flows_reject_another_algebra():
    # a flow acts on l's own algebra: its first argument must be l.basis or
    # l.basis.spec; a different spec, even one with the same constants, or
    # another point's basis is refused
    wb = wb_for("heisenberg-2param")
    spec, basis = wb.spec, wb.canonical_basis
    l = point(wb, Z=3)
    x = [G(0)] * spec.dim
    x[spec.index("X")] = G(1)
    a = [G(0)] * spec.dim
    a[spec.index("A")] = G(1)
    for first in (spec, basis):
        exp_unipotent_coadjoint(first, x, l)
        exp_h_coadjoint(first, a, l, mode="float")
    for other in (corpus_entry("heisenberg-2param").spec(),
                  wb_for("free-two-step").spec, wb.basis):
        with pytest.raises(ValueError, match="l.basis or l.basis.spec"):
            exp_unipotent_coadjoint(other, x, l)
        with pytest.raises(ValueError, match="l.basis or l.basis.spec"):
            exp_h_coadjoint(other, a, l, mode="float")


def test_flows_reject_a_direction_of_the_wrong_length():
    # a direction has one coordinate per basis element of g (dim 5 here):
    # one too many is not cut and one too few is not an IndexError
    wb = wb_for("heisenberg-2param")
    spec = wb.spec
    l = point(wb, Z=3)
    assert spec.dim == 5
    for flow in (exp_unipotent_coadjoint, exp_h_coadjoint):
        for vec in ([0, 0, 0, 1.0, 0, 5.0], [0, 0, 0, 1.0]):
            with pytest.raises(ValueError, match=f"dim g = 5 coordinates, "
                                                 f"got {len(vec)}"):
                flow(spec, vec, l)
