"""Seeded generator of valid-by-construction specs for generated-verdicts.

Two shapes, both with 1-3 real diagonal dilations acting by integer weights:

* ``two-step``: a quotient of the free 2-step nilpotent algebra on m
  generators X1..Xm, keeping the brackets [Xa, Xb] = Zk of a fixed list of
  pairs;
* ``filiform``: the model filiform chain [X1, Xj] = X(j+1), j = 2..n-1.

A dilation is fixed by its weights on the generators; every other basis
vector is a bracket of generators and carries the sum of their weights, so
the action is diagonal and the Jacobi identity holds. The expected verdict
is computed here from the integer weight matrix alone, without solvlie:
g is unimodular iff every dilation's weights on n sum to zero, and
dim(z(g) cap h) = r - rank of the weights on the generators.

The seed draws the weights; the bracket structure of each slot is fixed.
The first dilation is a random multiple of a fixed row whose weights on n
are distinct and ordered the same way for every seed. solvlie orders the
adapted basis by these weights, so it builds the same flag for every seed,
and the cost of the layer sampling, which depends on the flag, does not
move with the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import List, Sequence, Tuple

ADMISSIBLE = "ADMISSIBLE"
UNIMODULAR = "NOT_ADMISSIBLE_UNIMODULAR"
CENTER = "NOT_ADMISSIBLE_CENTER_MEETS_H"

# One round of generated-verdicts: (shape, structure, r, verdict class).
# A two-step structure is (generators, kept pairs); a filiform one is n_dim.
# n_dim runs from 6 to 11, past the corpus's largest n (8). Both shapes and
# every verdict class appear; a two-step weight row of distinct ordered
# weights has a positive trace, so unimodular slots are filiform.
ROUND: Tuple[tuple, ...] = (
    ("two-step", (4, ((0, 1), (2, 3))), 1, ADMISSIBLE),
    ("filiform", 6, 2, CENTER),
    ("filiform", 7, 1, UNIMODULAR),
    ("two-step", (5, ((0, 1), (1, 2), (3, 4))), 2, CENTER),
    ("filiform", 8, 2, UNIMODULAR),
    ("filiform", 9, 1, ADMISSIBLE),
    ("two-step", (6, ((0, 1), (2, 3), (4, 5), (1, 2), (3, 4))), 3, ADMISSIBLE),
)


def _rank(rows: Sequence[Sequence[int]]) -> int:
    mat = [[Fraction(x) for x in r] for r in rows]
    rank, col, ncols = 0, 0, len(mat[0]) if mat else 0
    while rank < len(mat) and col < ncols:
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def expected_verdict(gen_weights: Sequence[Sequence[int]],
                     multiplicity: Sequence[int]) -> str:
    """Verdict from generator weights (one row per dilation).

    ``multiplicity[g]`` is how often generator g enters the weights of the
    n basis, so a dilation's trace on n is the dot product with it.
    """
    traces = [sum(w * c for w, c in zip(row, multiplicity)) for row in gen_weights]
    if all(t == 0 for t in traces):
        return UNIMODULAR
    dim_z_cap_h = len(gen_weights) - _rank(gen_weights)
    return ADMISSIBLE if dim_z_cap_h == 0 else CENTER


def _two_step_structure(m: int, pairs):
    names = [f"Z{k + 1}" for k in range(len(pairs))] + [f"X{a + 1}" for a in range(m)]
    # basis vector -> generator exponents (weight = exponents . gen weights)
    expo = [[int(g in pair) for g in range(m)] for pair in pairs]
    expo += [[int(g == a) for g in range(m)] for a in range(m)]
    brackets = [(f"X{a + 1}", f"X{b + 1}", f"Z{k + 1}")
                for k, (a, b) in enumerate(pairs)]
    # powers of two: distinct weights, and distinct sums over the pairs
    base = [2 ** g for g in range(m)]
    return names, expo, brackets, base


def _filiform_structure(n: int):
    names = [f"X{j}" for j in range(n, 0, -1)]           # center first
    expo = [[1, 0] if j == 1 else [j - 2, 1] for j in range(n, 0, -1)]
    brackets = [("X1", f"X{j}", f"X{j + 1}") for j in range(2, n)]
    return names, expo, brackets, [1, n]


def _weights_for(rng: random.Random, verdict: str, r: int, base: List[int],
                 mult: List[int]) -> List[List[int]]:
    if verdict == UNIMODULAR:
        # the zero-trace row of a two-generator chain, in the same order
        if len(base) != 2:
            raise ValueError("unimodular slots need a two-generator shape")
        g = gcd(mult[0], mult[1])
        base = [-mult[1] // g, mult[0] // g]
    k = rng.randint(1, 3)
    rows = [[k * w for w in base]]
    for _ in range(1, r):
        if verdict == ADMISSIBLE:
            row = [rng.randint(-3, 3) for _ in base]
            while _rank(rows + [row]) == len(rows):
                row = [rng.randint(-3, 3) for _ in base]
        else:
            c = rng.randint(-2, 2)
            row = [c * w for w in base]
        rows.append(row)
    if expected_verdict(rows, mult) != verdict:
        raise ValueError(f"weights {rows} do not give {verdict}")
    return rows


def make_spec(rng: random.Random, shape: str, structure, r: int,
              verdict: str, name: str) -> Tuple[dict, str]:
    """One spec document of the given shape and the verdict it must get."""
    if shape == "two-step":
        names, expo, brackets, base = _two_step_structure(*structure)
    elif shape == "filiform":
        names, expo, brackets, base = _filiform_structure(structure)
    else:
        raise ValueError(f"unknown shape {shape!r}")
    mult = [sum(e[g] for e in expo) for g in range(len(base))]
    weights = _weights_for(rng, verdict, r, base, mult)
    h_names = [f"A{t + 1}" for t in range(r)]
    doc_brackets = [{"x": x, "y": y, "value": [{"c": "1", "b": z}]}
                    for x, y, z in brackets]
    for t, row in enumerate(weights):
        for lab, e in zip(names, expo):
            w = sum(a * b for a, b in zip(row, e))
            if w:
                doc_brackets.append({"x": h_names[t], "y": lab,
                                     "value": [{"c": str(w), "b": lab}]})
    doc = {"name": name, "n_basis": names, "h_basis": h_names,
           "brackets": doc_brackets}
    return doc, expected_verdict(weights, mult)


def generate(seed: int) -> List[Tuple[dict, str]]:
    """One round of specs with their expected verdicts, fixed by the seed."""
    rng = random.Random(seed)
    return [make_spec(rng, shape, structure, r, verdict,
                      f"gen-{seed}-{i}-{shape}")
            for i, (shape, structure, r, verdict) in enumerate(ROUND)]
