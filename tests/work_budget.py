"""Exact work of solvlie calls, counted the same way on every host.

The package decides in exact integer arithmetic, so the calls of an exact
routine, the ``Fraction`` objects made and the bit lengths reached are
fixed by the spec and the seed. ``Work`` counts them under one rule: a
package function is replaced by a counting wrapper in every ``solvlie``
module that binds it by name (``from .gaussian import _reduced`` too), and
every binding is restored when the ``with`` block ends, also on an error.

Run from the repository root as ``PYTHONPATH=src python tests/work_budget.py``,
it prints the call counts of the CI step "Design counts", on the specs of
``gen_specs``.
"""

import sys
from fractions import Fraction

from solvlie import functionals, strata


class Work(dict):
    """Counts of exact work by name, taken while its ``with`` block runs."""

    def __enter__(self):
        self._undo, self._depth = [], {}
        return self

    def __exit__(self, *exc):
        while self._undo:
            self._undo.pop()()

    def _wrap(self, owner, name, make):
        """Bind make(f) in place of f = owner.name, on owner and in every
        solvlie module that binds f by that name, until the block ends."""
        f = getattr(owner, name)
        saved = [(mod, vars(mod)[name]) for mod in {owner, *(
            mod for key, mod in list(sys.modules.items())
            if key.partition(".")[0] == "solvlie"
            and getattr(mod, name, None) is f)}]
        new = make(f)
        for mod, _ in saved:
            setattr(mod, name, new)
        self._undo.append(lambda: [setattr(mod, name, old)
                                   for mod, old in saved])

    def calls(self, owner, name, key=None, when=None, inside=None):
        """Count the calls of owner.name under key (its name by default):
        only those whose arguments pass when, and only those made inside a
        call of the function counted under inside."""
        key = key or name
        self[key] = self._depth[key] = 0

        def make(f):
            def counted(*args, **kwargs):
                if ((when is None or when(*args, **kwargs))
                        and (inside is None or self._depth[inside])):
                    self[key] += 1
                self._depth[key] += 1
                try:
                    return f(*args, **kwargs)
                finally:
                    self._depth[key] -= 1
            return counted
        self._wrap(owner, name, make)

    def fractions(self):
        """Count the Fraction constructions under "fraction", arithmetic on
        Fractions included. The samplers share one Fraction per integer
        drawn (``functionals._integer``); that cache starts empty, so the
        count does not depend on what ran before."""
        functionals._integer.cache_clear()
        self.calls(Fraction, "__new__", key="fraction")

    def bits(self, owner, name, ints):
        """The largest bit length of the ints ints(r) over the results r of
        owner.name, under "bits"."""
        self["bits"] = 0

        def measure(out):
            self["bits"] = max([self["bits"]] +
                               [abs(x).bit_length() for x in ints(out)])
            return out
        self._wrap(owner, name, lambda f: lambda *args: measure(f(*args)))

    def pivots(self):
        """Over the runs of ``strata._skew_reduce`` with its default hook:
        the largest bit length of |p|^2 over its pivot entries p
        ("pivot_bits"), and the divisions back to the Pfaffian minors they
        asked for ("divide_backs")."""
        self["pivot_bits"] = self["divide_backs"] = 0

        def grown(p):
            self["pivot_bits"] = max(self["pivot_bits"],
                                     strata._norm(p).bit_length())
            back = strata._grown(p)
            self["divide_backs"] += back
            return back
        self._wrap(strata, "_skew_reduce",
                   lambda f: lambda rows, hook=None: f(rows, hook or grown))


def _design_counts():
    from gen_specs import generated_doc, moved_distinct_weights, specgen
    from solvlie import algebra, gaussian, linalg
    from solvlie.adapted import build_adaptable_basis
    from solvlie.corpus import corpus_entries
    from solvlie.workbench import Workbench

    corpus = []
    for entry in corpus_entries():
        try:
            corpus.append(entry.spec())
        except algebra.SpecFormatError:
            continue
    corpus = [spec for spec in corpus if algebra.validate_spec(spec).ok]
    docs = [doc for doc, _ in specgen.generate(1)]
    filiform = generated_doc("filiform", 60, 2, specgen.ADMISSIBLE, 1,
                             "filiform-60")

    def generated():
        return [algebra.spec_from_dict(doc) for doc in docs]

    # samples keyed off the pivot polynomials (strata._sample_key fills no
    # orbit form) and layers kept on that path, over one generic_layer per
    # layer: the corpus in n* and g*, then the specgen seed-1 specs in n*
    counts = []
    for name, layers in (
            ("corpus", [(b, a) for wb in map(Workbench, corpus)
                        for b, a in ((wb.basis, "n"),
                                     (wb.canonical_basis, "g"))]),
            ("specgen seed 1", [(Workbench(s).basis, "n")
                                for s in generated()])):
        with Work() as work:
            work.calls(strata, "_sample_key")
            work.calls(strata, "_fill", inside="_sample_key")
            for basis, ambient in layers:
                strata.generic_layer(basis, ambient, seed=42)
        kept = sum(bool(basis.layer_tables[("pivots", ambient)])
                   for basis, ambient in layers)
        draws = work["_sample_key"]
        counts.append(f"{name}: {draws - work['_fill']}/{draws} samples, "
                      f"{kept}/{len(layers)} layers")
    print("generic-layer samples keyed off pivot polynomials:",
          "; ".join(counts))

    # exact eliminations of one weight decomposition per spec
    counts = []
    for name, specs in (("corpus", corpus),
                        ("specgen seed 1", generated())):
        with Work() as work:
            work.calls(linalg, "kernel")
            for spec in specs:
                algebra.weight_decomposition(spec)
        counts.append(f"{name}: {work['kernel']} over {len(specs)} specs")
    print("weight-decomposition kernel calls:", "; ".join(counts))

    # validate_spec on a cold moved action, P diag(1, ..., 30) P^-1
    moved = moved_distinct_weights(30)
    with Work() as work:
        work.calls(gaussian, "_reduced")
        work.calls(linalg, "kernel")
        algebra.validate_spec(moved)
    print(f"moved action n = 30 validation: gcd-reduced results "
          f"{work['_reduced']}, kernel {work['kernel']}")

    # one Workbench(spec).verdict() per specgen seed-1 spec: reductions of
    # a point, layer descriptions, compositions of the n-part and of the
    # h-part entries of the orbit-form table, exact eliminations,
    # gcd-reduced results (the funnel of every exact GaussianRational
    # result that needs a gcd), conversions between dense and sparse rows,
    # and Fraction constructions
    specs = generated()
    with Work() as verdict:
        for owner, name in ((strata, "jump_data"),
                            (strata, "layer_descriptor"), (linalg, "rref"),
                            (gaussian, "_reduced"), (linalg, "_sparse"),
                            (linalg, "_dense")):
            verdict.calls(owner, name)
        verdict.calls(strata, "_compose",
                      when=lambda rows, terms: rows is wb.basis.structure)
        verdict.calls(strata, "_compose", key="h_compose",
                      when=lambda rows, terms: rows is not wb.basis.structure)
        verdict.fractions()
        for spec in specs:
            wb = Workbench(spec)
            wb.verdict()
    print(f"verdict() exact work on specgen seed 1: jump_data "
          f"{verdict['jump_data']}, layer_descriptor "
          f"{verdict['layer_descriptor']}, n-part form-table builds "
          f"{verdict['_compose']}, h-part form-table builds "
          f"{verdict['h_compose']}, rref {verdict['rref']}, gcd-reduced "
          f"results {verdict['_reduced']}")

    # the front half, validate_spec and then build_adaptable_basis
    counts = []
    for name, front in (("specgen seed 1", docs),
                        ("filiform n = 60", [filiform])):
        with Work() as work:
            work.calls(linalg, "rref")
            work.calls(gaussian, "_reduced")
            for doc in front:
                spec = algebra.spec_from_dict(doc)
                algebra.validate_spec(spec)
                build_adaptable_basis(spec)
        counts.append(f"{name}: rref {work['rref']}, gcd-reduced results "
                      f"{work['_reduced']}")
    print("front-half exact work:", "; ".join(counts))
    print(f"row conversions of verdict() on specgen seed 1: _sparse "
          f"{verdict['_sparse']}, _dense {verdict['_dense']}")
    print("Fraction constructions in specgen seed-1 verdict():",
          verdict["fraction"])


if __name__ == "__main__":
    _design_counts()
