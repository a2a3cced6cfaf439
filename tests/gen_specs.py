"""The generated and hand-made algebras and points the tests share.

``specgen`` is ``perfbench/specgen.py``, loaded once from its file: the
seeded rounds of 2-step and filiform specs with their expected verdicts
(``specgen.generate(seed)``, ``specgen.make_spec``). Around it:

- ``generated_doc``/``generated_spec``: one specgen spec of a given shape,
  torus rank, verdict and seed; ``SHAPES`` (n_dim 6 to 12) and ``WIDER``
  (the last of them and the filiform chains ``FILIFORM_WIDE``) list the
  arguments the tests pass;
- ``GENERATED``: the specgen documents of seeds 1, 7 and 13;
- ``dense_center_spec``: a 2-step algebra with a one-dimensional center
  and every bracket nonzero, so that the orbit form is dense;
- ``heisenberg_power_spec``: H_3^m under one dilation of weights (2, 1, 1)
  on each copy;
- ``conjugated`` with ``blocks`` and ``rotation``: an action P D P^-1
  moved off its block-diagonal form D by a seeded integer matrix P;
- ``double_heisenberg_with_v`` and the hint builders ``pair_hint``,
  ``real_hint`` and ``COMPLEX_HINT`` of the complex Heisenberg shapes;
- ``degenerate_points``: exact points with coordinates in {-1, 0, 1} and
  30 % zeros, which reach the lower layers as well as the generic one;
- ``generic_draws``: the integer coordinates ``generic_layer`` draws on
  g*, and ``GAUSSIAN``, ``non_real`` and ``split``, which the replays of
  h-steps with Gaussian-integer pivots build on.

A test module takes its specs and points from here, or from ``conftest``
(the corpus) and the ``*_oracle.py`` modules, and from no other test
module.
"""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import rref_oracle
from solvlie.algebra import LieAlgebraSpec, spec_from_dict
from solvlie.functionals import Functional, _draw_integers
from solvlie.gaussian import GaussianRational

_SPECGEN = Path(__file__).resolve().parents[1] / "perfbench" / "specgen.py"
_loader = importlib.util.spec_from_file_location("specgen", _SPECGEN)
specgen = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(specgen)


# -- specgen specs --------------------------------------------------------------

def generated_doc(shape, structure, r, verdict, seed, name=None):
    """The document ``specgen.make_spec`` draws with Random(seed), named
    gen-<shape> unless a name is given."""
    doc, _ = specgen.make_spec(random.Random(seed), shape, structure, r,
                               verdict, name or f"gen-{shape}")
    return doc


def generated_spec(shape, structure, r, verdict, seed):
    return spec_from_dict(generated_doc(shape, structure, r, verdict, seed))


# (shape, structure, r, verdict, seed); n_dim 6 to 12
SHAPES = [
    ("filiform", 6, 2, specgen.CENTER, 1),
    ("filiform", 9, 1, specgen.ADMISSIBLE, 2),
    ("filiform", 12, 2, specgen.UNIMODULAR, 3),
    ("two-step", (4, ((0, 1), (2, 3))), 1, specgen.ADMISSIBLE, 4),
    ("two-step", (5, ((0, 1), (1, 2), (3, 4))), 2, specgen.CENTER, 5),
    ("two-step", (6, ((0, 1), (2, 3), (4, 5), (1, 2), (3, 4), (0, 5))), 3,
     specgen.ADMISSIBLE, 6),
    ("two-step", (8, tuple((a, a + 1) for a in range(7)) + ((0, 7), (1, 4), (2, 6))),
     2, specgen.ADMISSIBLE, 9),
]

# wider filiform chains: (n, r, verdict, seed)
FILIFORM_WIDE = [(24, 2, specgen.ADMISSIBLE, 7), (40, 2, specgen.CENTER, 8)]

# the wider specs: the last of SHAPES and the wide filiform chains
WIDER = SHAPES[-1:] + [("filiform", *c) for c in FILIFORM_WIDE]

GENERATED = [doc for seed in (1, 7, 13) for doc, _ in specgen.generate(seed)]


# -- hand-made specs ------------------------------------------------------------

def dense_center_spec(m, seed=0):
    """[X_a, X_b] = c_ab Z with every c_ab a nonzero integer; one dilation
    with weight 1 on each X_a and 2 on Z. The generic jump set is every X,
    so |e| = m, and the orbit form on it is l(Z) c: dense."""
    rng = random.Random(seed)
    xs = [f"X{a + 1}" for a in range(m)]
    brackets = []
    for a in range(m):
        for b in range(a + 1, m):
            c = 0
            while c == 0:
                c = rng.randint(-5, 5)
            brackets.append({"x": xs[a], "y": xs[b],
                             "value": [{"c": str(c), "b": "Z"}]})
    brackets += [{"x": "A", "y": x, "value": [{"c": "1", "b": x}]} for x in xs]
    brackets.append({"x": "A", "y": "Z", "value": [{"c": "2", "b": "Z"}]})
    return spec_from_dict({"name": f"dense-center-{m}", "n_basis": ["Z"] + xs,
                           "h_basis": ["A"], "brackets": brackets})


def heisenberg_power_spec(m):
    """H_3^m, [X_k, Y_k] = Z_k over the basis Z_1..Z_m, Y_1..Y_m,
    X_1..X_m, with one dilation A of weight 2 on each Z_k and 1 on each
    Y_k and X_k: tr ad A = 4m and A moves the center, so ADMISSIBLE."""
    ks = range(1, m + 1)
    brackets = [{"x": f"X{k}", "y": f"Y{k}", "value": [{"c": "1", "b": f"Z{k}"}]}
                for k in ks]
    brackets += [{"x": "A", "y": f"{lab}{k}", "value": [{"c": c, "b": f"{lab}{k}"}]}
                 for lab, c in (("Z", "2"), ("Y", "1"), ("X", "1")) for k in ks]
    return spec_from_dict({
        "name": f"heisenberg-power-{m}",
        "n_basis": [f"{lab}{k}" for lab in "ZYX" for k in ks],
        "h_basis": ["A"], "brackets": brackets})


def blocks(*blocks):
    """The block-diagonal matrix of the square blocks, as rows of Fractions."""
    size = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * size for _ in range(size)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[at + i][at + j] = Fraction(x)
        at += len(b)
    return out


def rotation(a, b):
    """The block of the weights a + ib and a - ib."""
    return [[a, -b], [b, a]]


def conjugated(blocks, seed, heisenberg=False):
    """Abelian n with A acting by P blocks P^-1 for a random integer P, so
    that the matrix of ad(A) is dense, not triangular. With ``heisenberg``,
    n is H_3 + that abelian part as its center, [X, Y] = Z, and A acts
    trivially on H_3."""
    size = len(blocks)
    rng = random.Random(seed)
    while True:
        p = [[GaussianRational(rng.randint(-3, 3)) for _ in range(size)]
             for _ in range(size)]
        p_inv = rref_oracle.invert(p)
        if p_inv is not None:
            break
    zero = GaussianRational(0)
    pb = [[sum((p[i][k] * blocks[k][l] for k in range(size)), zero)
           for l in range(size)] for i in range(size)]
    mat = [[sum((pb[i][l] * p_inv[l][j] for l in range(size)), zero).re
            for j in range(size)] for i in range(size)]
    names = [f"X{i}" for i in range(size)]
    brackets = {("A", names[m]): {names[r]: mat[r][m] for r in range(size)
                                  if mat[r][m]} for m in range(size)}
    if heisenberg:
        names = ["Z", "Y", "X"] + names
        brackets[("X", "Y")] = {"Z": Fraction(1)}
    return LieAlgebraSpec("dense-action", names, ["A"], brackets)


def moved_distinct_weights(n, seed=0):
    """The weights 1..n on abelian n, moved by ``conjugated``: one start
    vector fills the space, and every split takes the Krylov route."""
    return conjugated(blocks(*([[w]] for w in range(1, n + 1))), seed)


def pair_hint(x, y):
    """The hint vectors x + iy and x - iy."""
    return [{"label": f"{x}+", "value": [{"c": "1", "b": x}, {"c": "1 i", "b": y}]},
            {"label": f"{x}-", "value": [{"c": "1", "b": x}, {"c": "-1 i", "b": y}]}]


def real_hint(x):
    """The hint vector x."""
    return [{"label": f"{x}r", "value": [{"c": "1", "b": x}]}]


# the complex Heisenberg algebra's hint, Z = Z1 + iZ2, Y and X alike
COMPLEX_HINT = (pair_hint("Z1", "Z2") + pair_hint("Y1", "Y2")
                + pair_hint("X1", "X2"))


def double_heisenberg_with_v():
    """double-heisenberg with a real V and [V, Y2] = Z1."""
    return {
        "name": "double-heisenberg-with-v",
        "n_basis": ["Z1", "Z2", "Y1", "Y2", "X1", "X2", "V"], "h_basis": [],
        "brackets": [{"x": "X1", "y": "Y1", "value": [{"c": "1", "b": "Z1"}]},
                     {"x": "X2", "y": "Y2", "value": [{"c": "1", "b": "Z2"}]},
                     {"x": "V", "y": "Y2", "value": [{"c": "1", "b": "Z1"}]}],
        "adaptable_hint": COMPLEX_HINT + real_hint("V")}


# -- points ---------------------------------------------------------------------

def degenerate_points(basis, support, seed):
    """Twelve exact points drawn on n* (support "n") or g*, each coordinate
    0 with probability 0.3 and +-1 otherwise."""
    rng = random.Random(seed)
    drawn = basis.n if support == "n" else basis.dim
    for _ in range(12):
        vals = [0 if rng.random() < 0.3 else rng.choice((-1, 1))
                for _ in range(drawn)]
        yield Functional(basis, vals + [0] * (basis.dim - drawn), exact=True)


def generic_draws(basis, seed):
    """The nonzero coordinates generic_layer(basis, "g", seed) draws."""
    rng = random.Random(seed)
    for _ in range(64):
        xs = _draw_integers(rng, 9, basis.ambient("g"))
        if any(xs):
            yield xs


# corpus entries whose canonical basis has complex h-pair weights and whose
# reductions meet non-real pivots
GAUSSIAN = ("spiral-heisenberg", "coupled-pairs",
            "heisenberg-complex-dilation")


def non_real(x):
    return isinstance(x, GaussianRational) and not x.is_real()


def split(c, k):
    """(num, den) with num / den = c: Gaussian integers, an int when real,
    both times the Gaussian integer k."""
    c = GaussianRational.coerce(c)
    den = c.re.denominator * c.im.denominator
    num = c * den
    if num.is_real():
        num = int(num.re)
    return k * num, k * den
