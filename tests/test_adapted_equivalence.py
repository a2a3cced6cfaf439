"""The adapted basis against the rank-based oracle in adapted_oracle.py.

Both build (or verify) the basis of every corpus spec that parses, with its
hint and without, and of seeded filiform and two-step specs up to n = 12
from perfbench/specgen.py; they must agree on the vectors, weights, sigma
and alpha, or raise the same error. The h-part swap of the
Workbench's canonical basis is checked against a full oracle verification.
"""

import hashlib

import pytest

from adapted_oracle import construct, verify
from conftest import VALID_IDS, corpus_entry, wb_for
from gen_specs import FILIFORM_WIDE, SHAPES, generated_spec
from solvlie.adapted import build_adaptable_basis
from solvlie.algebra import SpecFormatError
from solvlie.corpus import corpus_entries
from solvlie.gaussian import GaussianRational as G


def _parses(entry):
    try:
        entry.spec()
    except SpecFormatError:
        return False
    return True


PARSED_IDS = [e.entry_id for e in corpus_entries() if _parses(e)]

# the wide filiform chains of FILIFORM_WIDE by n: the built basis is checked
# against the oracle's construction, and its vectors against the SHA-256 of
# what the construction that re-split every level gave
DIGESTS = {
    24: "50b20ed362813719fd3ce220a9fb958e005275248bae7432309e5f3d6815ad70",
    40: "444cb3e475ad4a72d10ce93d76cf053c66384274123741d759e90794f5270100",
}


def _outcome(fn):
    try:
        b = fn()
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return list(b.vectors), list(b.weights), tuple(b.sigma), list(b.alpha)


def _assert_agree(spec, hint):
    want = _outcome(lambda: construct(spec, hint))
    got = _outcome(lambda: build_adaptable_basis(spec, hint=hint))
    assert got == want


@pytest.mark.parametrize("entry_id", PARSED_IDS)
@pytest.mark.parametrize("use_hint", [True, False])
def test_corpus_basis_matches_oracle(entry_id, use_hint):
    spec = corpus_entry(entry_id).spec()
    _assert_agree(spec, spec.adaptable_hint if use_hint else None)


@pytest.mark.parametrize("shape,structure,r,verdict,seed", SHAPES)
def test_generated_basis_matches_oracle(shape, structure, r, verdict, seed):
    _assert_agree(generated_spec(shape, structure, r, verdict, seed), None)


def _digest(vectors):
    text = "\n".join(",".join(str(x) for x in v) for v in vectors)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("n,r,verdict,seed", FILIFORM_WIDE,
                         ids=[f"filiform-{c[0]}" for c in FILIFORM_WIDE])
def test_wide_filiform_basis_verifies_and_is_unchanged(n, r, verdict, seed):
    spec = generated_spec("filiform", n, r, verdict, seed)
    basis = build_adaptable_basis(spec)
    assert _outcome(lambda: basis) == _outcome(lambda: construct(spec))
    assert _digest(basis.vectors) == DIGESTS[n]


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_canonical_basis_matches_oracle(entry_id):
    wb = wb_for(entry_id)
    basis = wb.canonical_basis
    want = _outcome(lambda: verify(wb.spec, basis.nvecs, basis.hvecs))
    assert _outcome(lambda: basis) == want


def test_h_part_swap_rejects_like_the_oracle():
    wb = wb_for("five-dilations-repaired")
    spec, basis = wb.spec, wb.basis
    n, r = spec.n_dim, spec.h_dim

    def h(*coords):
        return tuple([G(0)] * n + [G(c) if not isinstance(c, G) else c
                                   for c in coords])

    good = [h(*[1 if s == t else 0 for s in range(r)]) for t in range(r)]
    bad = {
        "complex": [h(G(0, 1), 0, 0, 0, 0)] + good[1:],
        "rank": [h(1, 1, 0, 0, 0), h(2, 2, 0, 0, 0)] + good[2:],
        "in_n": [tuple([G(1)] + [G(0)] * (n + r - 1))] + good[1:],
        "count": good[1:],
    }
    for hv in bad.values():
        want = _outcome(lambda: verify(spec, basis.nvecs, hv))
        assert want[0] == "HintInvalidError"
        assert _outcome(lambda: basis.with_h_part(hv)) == want
    assert _outcome(lambda: basis.with_h_part(good)) == \
        _outcome(lambda: verify(spec, basis.nvecs, good))
