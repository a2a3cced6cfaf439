"""``admissibility.center_data`` against the two-kernel route it replaced
(center_oracle.py), on the corpus specs that parse and on the specs of
perfbench/specgen.py at seeds 1-20.

The library reads z(g) cap h off the RREF rows of z(g) whose pivot lies in
h, and its kernel stops once every column is a pivot; the oracle runs a
second, full kernel on the h columns. Both spans, held in RREF, must be
row for row the same, and the verdict must follow dim z(g) cap h on both
verdict classes of the paper's rule that the center decides.
"""


import center_oracle
from gen_specs import specgen
from solvlie import admissibility as adm
from solvlie.algebra import SpecFormatError, spec_from_dict, validate_spec
from solvlie.corpus import corpus_entries


def _specs():
    out = []
    for entry in corpus_entries():
        try:
            out.append((entry.entry_id, entry.spec(), None))
        except SpecFormatError:
            continue
    for seed in range(1, 21):
        for doc, verdict in specgen.generate(seed):
            out.append((f"{doc['name']}@{seed}", spec_from_dict(doc), verdict))
    return out


SPECS = _specs()


def test_center_data_agrees_with_the_two_kernel_route():
    meets, trivial, zero_center = 0, 0, 0
    for name, spec, _ in SPECS:
        got = adm.center_data(spec)
        z_g, z_cap_h = center_oracle.center_data(spec)
        for mine, want in ((got.z_g, z_g), (got.z_cap_h, z_cap_h)):
            assert (mine.rows, mine.pivots) == (want.rows, want.pivots), name
        assert all(p >= spec.n_dim for p in got.z_cap_h.pivots), name
        meets += got.dim_z_cap_h > 0
        trivial += got.dim_z_cap_h == 0
        zero_center += got.z_g.dim == 0
    # both outcomes of the center test, and the early stop of a zero center
    assert meets and trivial and zero_center, (meets, trivial, zero_center)


def test_generated_verdicts_follow_the_center():
    # the generator's own expected verdict, from its integer weights,
    # against the verdict rule on the library's center and traces
    seen = set()
    for name, spec, want in SPECS:
        if want is None:
            continue
        assert validate_spec(spec).ok, name
        uni, _ = adm.unimodularity(spec)
        code = adm.verdict_from_parts(uni, adm.center_data(spec).dim_z_cap_h)
        assert code == want, name
        seen.add(code)
    assert {adm.VERDICT_ADMISSIBLE, adm.VERDICT_CENTER} <= seen, seen
