"""The paper's outputs do not depend on the basis the spec is written in.

Each valid corpus spec and each spec ``perfbench/specgen.py`` generates for
seed 1 is moved twice, each time by a seeded random invertible integer
matrix on n with entries in [-2, 2]; on the second move h is moved too, by
such a matrix on h. A moved spec keeps the labels and drops the hint. The
verdict, dim z(g) cap h, k_dim, the multiplicity, |e| in n* and in g*,
|phi| and the outcome of the disintegration check (its constant, or the
type of the error it raises) must be those of the spec itself.

The moves take the weight decomposition off its diagonal shortcut: at
least one moved spec reads its weight spaces off the Krylov vectors of
``algebra._eigenspaces``.
"""

import random
from fractions import Fraction

from conftest import VALID_IDS, corpus_entry
from gen_specs import specgen
from rref_oracle import invert
from solvlie import algebra
from solvlie.algebra import LieAlgebraSpec, spec_from_dict
from solvlie.gaussian import GaussianRational, ZERO
from solvlie.workbench import Workbench

GR1 = GaussianRational(1)


def _invertible(rng, size):
    """A random invertible integer matrix with entries in [-2, 2], as rows,
    and its inverse."""
    while True:
        mat = [[GaussianRational(rng.randint(-2, 2)) for _ in range(size)]
               for _ in range(size)]
        inv = invert(mat)
        if inv is not None:
            return mat, inv


def _moved(spec, rng, move_h):
    """spec over the basis b'_x = sum_i M[x][i] b_i, M = diag(P, Q) with P
    random on n and Q random on h if move_h, else the identity: each
    bracket [b'_x, b'_y] = sum M[x][i] M[y][j] [b_i, b_j] is written over
    the new basis of n through P^{-1}."""
    nd, hd = spec.n_dim, spec.h_dim
    p, p_inv = _invertible(rng, nd)
    q = (_invertible(rng, hd)[0] if move_h else
         [[GR1 if s == t else ZERO for t in range(hd)] for s in range(hd)])
    rows = [row + [ZERO] * hd for row in p] + [[ZERO] * nd + row for row in q]
    brackets = {}
    # h is abelian, so every nonzero bracket has some x < nd
    for x in range(nd):
        for y in range(x + 1, spec.dim):
            w = [ZERO] * nd
            for i, a in enumerate(rows[x]):
                for j, b in enumerate(rows[y]):
                    if a and b:
                        for m, c in spec.bracket_sparse(i, j):
                            w[m] = w[m] + a * b * c
            coords = [sum((w[i] * p_inv[i][a] for i in range(nd)), ZERO)
                      for a in range(nd)]
            if any(coords):
                brackets[(spec.names[x], spec.names[y])] = {
                    spec.n_names[a]: Fraction(c.re)
                    for a, c in enumerate(coords) if c}
    return LieAlgebraSpec(spec.name, spec.n_names, spec.h_names, brackets)


def _invariants(spec):
    wb = Workbench(spec)
    try:
        disintegration = wb.disintegration()
    except ValueError as exc:
        disintegration = type(exc).__name__
    return {"verdict": wb.verdict().verdict,
            "dim z(g) cap h": wb.center.dim_z_cap_h,
            "k_dim": wb.stabilizer.k_dim,
            "multiplicity": wb.multiplicity,
            "|e| in n*": len(wb.n_layer.e_set),
            "|e| in g*": len(wb.g_layer.e_set),
            "|phi|": len(wb.stabilizer.phi),
            "disintegration": disintegration}


def _specs():
    specs = [corpus_entry(entry_id).spec() for entry_id in VALID_IDS]
    return specs + [spec_from_dict(doc) for doc, _ in specgen.generate(1)]


def test_outputs_are_invariant_under_a_change_of_basis(monkeypatch):
    krylov = []
    eigenspaces = algebra._eigenspaces

    def counted(mat):
        krylov.append(len(mat))
        return eigenspaces(mat)

    specs = _specs()
    assert len(specs) == 17
    want = [_invariants(spec) for spec in specs]
    monkeypatch.setattr(algebra, "_eigenspaces", counted)
    for k, (spec, expected) in enumerate(zip(specs, want)):
        rng = random.Random(900 + k)
        for move_h in (False, True):
            moved = _moved(spec, rng, move_h)
            assert _invariants(moved) == expected, (spec.name, move_h)
    assert krylov
