"""Workload definitions: input families, seeded coefficients, reference b(s).

Each workload is a fixed list of input families.  The seed only picks the
nonzero small-integer coefficient on each monomial (and the distinct slopes of
the line arrangement).  Such a scaling does not change the local b-function,
so the closed-form reference in reference.py stays exact for every seed.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

import reference

COEFFS = (-3, -2, -1, 1, 2, 3)


@dataclass(frozen=True)
class Family:
    """An input family: a polynomial template and its closed-form b(s).

    template is a format string over the variables; each {c0}, {c1}, ...
    receives a seeded coefficient and {a}, {b} receive two distinct nonzero
    slopes.  reference is the ascending monic b(s).
    """

    label: str
    variables: tuple
    template: str
    reference: tuple


@dataclass(frozen=True)
class Case:
    """One concrete input of a workload pass."""

    label: str
    variables: tuple
    text: str
    reference: tuple


XY, XYZ = ("x", "y"), ("x", "y", "z")


def _bp(label, exponents):
    names = XY if len(exponents) == 2 else XYZ
    template = " + ".join(f"({{c{i}}})*{v}^{a}"
                          for i, (v, a) in enumerate(zip(names, exponents)))
    return Family(label, names, template, reference.brieskorn_pham_b(exponents))


SURFACES = (
    _bp("x^3+y^2+z^2", (3, 2, 2)),
    _bp("x^4+y^2+z^2", (4, 2, 2)),
    _bp("x^5+y^2+z^2", (5, 2, 2)),
    Family("x^3+x*y^2+z^2", XYZ, "({c0})*x^3 + ({c1})*x*y^2 + ({c2})*z^2",
           reference.quasi_homogeneous_b((Fraction(1, 3), Fraction(1, 3),
                                          Fraction(1, 2)))),
    # x^2*z^2 times a unit at the origin: locally the normal crossing x^2*z^2.
    Family("x^2*(y+1)^2*z^2", XYZ,
           "({c0})*x^2*y^2*z^2 + ({c1})*x^2*y*z^2 + ({c2})*x^2*z^2",
           reference.poly_from_roots([Fraction(-1)] * 2 + [Fraction(-1, 2)] * 2)),
    Family("x*y*z", XYZ, "({c0})*x*y*z",
           reference.poly_from_roots([Fraction(-1)] * 3)),
)

CURVES = (
    _bp("x^2+y^3", (2, 3)),
    Family("x^2*y+y^4", XY, "({c0})*x^2*y + ({c1})*y^4",
           reference.quasi_homogeneous_b((Fraction(3, 8), Fraction(1, 4)))),
    _bp("x^3+y^4", (3, 4)),
    _bp("x^5+y^5", (5, 5)),
    # four distinct lines through the origin: homogeneous of degree 4.
    Family("x*y*(x+a*y)*(x+b*y)", XY, "({c0})*x*y*(x + ({a})*y)*(x + ({b})*y)",
           reference.quasi_homogeneous_b((Fraction(1, 4), Fraction(1, 4)))),
    _bp("x^3+y^5", (3, 5)),
)

BSEARCH = (
    _bp("x^3+y^7", (3, 7)),
    _bp("x^4+y^6", (4, 6)),
    _bp("x^5+y^6", (5, 6)),
)

LAZARD = (SURFACES[0], SURFACES[3], SURFACES[4])


@dataclass(frozen=True)
class Workload:
    """A pass is one call per family, in order.

    kind "localb" calls local_b_function(f, gb_strategy=strategy); kind
    "bsearch" builds the basis in set-up and times find_generator alone,
    because rational_roots does not finish on its inputs.
    """

    name: str
    kind: str
    strategy: str
    families: tuple


WORKLOADS = {
    "surfaces": Workload("surfaces", "localb", "mora", SURFACES),
    "curves": Workload("curves", "localb", "mora", CURVES),
    "bsearch": Workload("bsearch", "bsearch", "mora", BSEARCH),
    "lazard": Workload("lazard", "localb", "lazard", LAZARD),
}

# Inputs the pipeline cannot yet finish within a run's budget.  They are kept
# out of the passes and printed with every result so the gap stays visible.
OUT_OF_BUDGET = (
    ("curves", "x^4+y^5, x^3+y^7, x^4+y^7, x^5+y^6 through local_b_function",
     "rational_roots trial-divides up to sqrt(|scaled b(0)|), about 1e7-1e12 "
     "here, and tests every divisor pair; x^4+y^6 spends 32 s there against "
     "1.9 s for the whole search"),
    ("lazard", "x^4+y^2+z^2 (34 s), x^5+y^2+z^2 (500 s)",
     "homogenized Buchberger in groebner_lazard"),
)


def make_cases(workload, seed, draw=0):
    """The inputs of pass number `draw`, a pure function of seed and draw.

    Every pass draws fresh coefficients, so later passes are not replays of
    the first that a cache keyed by the input could answer.
    """
    rng = random.Random(f"{workload.name}:{seed}:{draw}")
    cases = []
    for fam in workload.families:
        values = {f"c{i}": rng.choice(COEFFS) for i in range(3)}
        values["a"], values["b"] = rng.sample(COEFFS, 2)
        cases.append(Case(fam.label, fam.variables,
                          fam.template.format(**values), fam.reference))
    return cases
