from __future__ import annotations

from fractions import Fraction
from importlib import resources

import pytest

import jump_oracle
from solvlie.corpus import CorpusEntry, corpus_entries
from solvlie.functionals import Functional
from solvlie.gaussian import GaussianRational, ZERO
from solvlie.strata import _case_table
from solvlie.workbench import Workbench

_WB_CACHE = {}


def corpus_entry(entry_id: str) -> CorpusEntry:
    """The bundled corpus entry of the given id (KeyError if none)."""
    for e in corpus_entries():
        if e.entry_id == entry_id:
            return e
    raise KeyError(f"no corpus entry named {entry_id!r}")


def corpus_file_text(entry_id: str) -> str:
    """The text of the bundled corpus file of the given id."""
    return resources.files("solvlie").joinpath(
        "corpus", f"{entry_id}.json").read_text(encoding="utf-8")


def wb_for(entry_id: str, seed: int = 42) -> Workbench:
    key = (entry_id, seed)
    if key not in _WB_CACHE:
        _WB_CACHE[key] = Workbench(corpus_entry(entry_id).spec(), seed=seed)
    return _WB_CACHE[key]


def point(wb: Workbench, **coords) -> Functional:
    """Exact functional from real-basis coordinates given by label."""
    vals = [Fraction(0)] * wb.spec.dim
    for lab, v in coords.items():
        vals[wb.spec.index(lab)] = Fraction(v)
    return Functional(wb.canonical_basis, vals, exact=True)


def sample_element(spec, rng, bound: int = 5, support: str = "n"):
    """Random exact element of n (or h, or g) as a coordinate vector."""
    lo = 0 if support in ("n", "g") else spec.n_dim
    hi = spec.dim if support in ("h", "g") else spec.n_dim
    return tuple(GaussianRational(rng.randint(-bound, bound))
                 if lo <= m < hi else ZERO for m in range(spec.dim))


def case_table(jd):
    """The case table the basis of jd keeps for its ambient and jump pairs."""
    return _case_table(jd.basis, jd.ambient, jd.i_seq, jd.j_seq)


def descriptor_outcome(descriptor, f, basis, ambient):
    """descriptor(f, basis, ambient) as a dict, or the name of the
    ValueError it raises."""
    try:
        return descriptor(f, basis, ambient).as_dict()
    except ValueError as exc:
        return type(exc).__name__


def moving_weights(f, a):
    """The (j, gamma_j(a)) at the adapted j where the exact point f has
    l(Z_j) != 0 and gamma_j(a) != 0, read exactly from ``basis.weights``
    and ``f.z``. exp(a) scales l(Z_j) by e^{-gamma_j(a)}, so it fixes f
    exactly when there is none (a, a vector of g, is zero on n)."""
    basis = f.basis
    nd = basis.spec.n_dim
    out = []
    for j, ws in enumerate(basis.weights, 1):
        gamma = sum((GaussianRational.coerce(a[nd + t]) * w
                     for t, w in enumerate(ws)), ZERO)
        if gamma and f.z(j):
            out.append((j, gamma))
    return out


def form_values(rows, den, zero=ZERO):
    """The entries of a form held as {q: den M[p][q]} rows (``JumpData.form``
    and ``JumpData.den``), as {q: M[p][q]}: exact over Q(i) when
    the rows hold Gaussian integers, the floats themselves at a float
    point (den 1). zero is the point's."""
    return [{q: (zero + x) / den for q, x in row.items()} for row in rows]


def sub_form(f, indices):
    """The dense orbit form [l[Z_i, Z_j]] of the point f over the given
    adapted indices (1-based, each in 1..dim), read off the dense form of
    ``jump_oracle._orbit_form``."""
    _, form, _ = jump_oracle._orbit_form(f, f.basis, max(indices, default=0))
    return [[form[i - 1][j - 1] for j in indices] for i in indices]


def exact_reduction(steps, den):
    """(reductions, pivots) of the exact division path, recovered from the
    fraction-free steps of ``strata._skew_reduce`` run on den M: each
    reduced g has the coefficient num / d, and the pivot of step k of
    den M is the quotient num / d that step k records, so that of M is
    num / (d den)."""
    one = GaussianRational(1)
    reductions = [tuple((g, one * num / d) for g, num, d in red)
                  for _, red in steps]
    pivots = [one * num / (d * den) for (num, d), _ in steps]
    return reductions, pivots


@pytest.fixture(scope="session")
def all_entries():
    return corpus_entries()


# ids of entries whose spec parses and validates (used by property suites)
VALID_IDS = [
    "anisotropic-heisenberg",
    "coupled-pairs",
    "double-heisenberg",
    "filiform-dilations-repaired",
    "five-dilations-repaired",
    "free-two-step",
    "heisenberg-2param",
    "heisenberg-complex-dilation",
    "spiral-heisenberg",
    "three-dilations-repaired",
]

# entries whose section samplers are supported (simple jump equations)
SAMPLABLE_IDS = [i for i in VALID_IDS if i != "coupled-pairs"]
