"""Closed-form edge counts and the case tables selecting extremal families.

All arithmetic is exact (integers and fractions); the sandwich bounds have
margins as thin as r/8, so floating point is never used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

#: Case-table modes.  "theorem1" is the generalized-book table: it is an
#: asymptotic statement and refuses quotients q <= 2 rather than guessing.
#: "theorem14" is the forbidden-clique table, defined for every q >= 1; the
#: two differ only in the extra q in {1, 2} branch of the latter.
MODES = ("theorem1", "theorem14")

CASE_G1_G2 = "G1_G2"
CASE_G1_G2_G3 = "G1_G2_G3"
CASE_G2_G3 = "G2_G3"
CASE_G3_ONLY = "G3_only"
CASE_SMALL_Q = "SMALL_Q_C5_JOIN"

FAMILY_G1 = "G1"
FAMILY_G2 = "G2"
FAMILY_G3 = "G3"
FAMILY_C5_JOIN = "C5_JOIN"


@dataclass(frozen=True)
class CaseParams:
    """Arithmetic frame (n, r, k) with the division n = q*r + p, 0 <= p < r.

    q and p are always derived from n and r, so inconsistent triples cannot
    be constructed.  k is carried for the search and checker modules; the
    closed-form value does not depend on it.
    """

    n: int
    r: int
    k: int = 1

    def __post_init__(self) -> None:
        if self.r < 3:
            raise ValueError(f"r must be >= 3, got {self.r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    def __str__(self) -> str:
        """The fields that open every report line: n=.. r=.. k=.. q=.. p=.."""
        return f"n={self.n} r={self.r} k={self.k} q={self.q} p={self.p}"

    @property
    def q(self) -> int:
        return self.n // self.r

    @property
    def p(self) -> int:
        return self.n % self.r

    @property
    def in_closed_form_range(self) -> bool:
        """Whether n >= r + 3, the domain of the closed-form value."""
        return self.n >= self.r + 3


@dataclass(frozen=True)
class ExtremalCase:
    """Which families attain the maximum for the given (q, p, r)."""

    label: str
    families: tuple[str, ...]


def turan_edge_count(n: int, r: int) -> int:
    """Edge count of the balanced complete r-partite graph on n vertices."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    q, p = divmod(n, r)
    num = n * n - (r - p) * q * q - p * (q + 1) * (q + 1)
    assert num % 2 == 0
    return num // 2


def turan_sandwich_holds(n: int, r: int) -> bool:
    """Exact check of (1-1/r)n^2/2 - r/8 <= e(T_r(n)) <= (1-1/r)n^2/2."""
    if not 2 <= r <= n:
        raise ValueError(f"need 2 <= r <= n, got r={r}, n={n}")
    e = Fraction(turan_edge_count(n, r))
    upper = (1 - Fraction(1, r)) * Fraction(n * n, 2)
    lower = upper - Fraction(r, 8)
    return lower <= e <= upper


def ex_nonpartite_value(params: CaseParams) -> int:
    """Maximum edge count over non-r-partite book-free graphs, closed form.

    Valid for n >= r + 3 (the n = r + 3 boundary row is known to disagree
    with the small-quotient construction; the verify harness reports it).
    The value does not depend on k.
    """
    if not params.in_closed_form_range:
        raise ValueError(
            f"closed form needs n >= r + 3, got n={params.n}, r={params.r}")
    n, r, p = params.n, params.r, params.p
    value = ((1 - Fraction(1, r)) * Fraction(n * n, 2)
             - Fraction(n, r)
             + Fraction(p * (p + 2), 2 * r)
             - Fraction(p, 2)
             + 1)
    assert value.denominator == 1, f"non-integral closed form at {params}"
    return int(value)


def extremal_case(params: CaseParams, mode: str = "theorem1") -> ExtremalCase:
    """Select the extremal families for (q, p) under the given case table."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not params.in_closed_form_range:
        raise ValueError(
            f"case tables need n >= r + 3, got n={params.n}, r={params.r}")
    q, p, r = params.q, params.p, params.r
    if q <= 2:
        if mode == "theorem1":
            raise ValueError(
                f"q={q} is below the asymptotic regime of the book-graph case"
                " table; the theorem14 table covers every q >= 1")
        return ExtremalCase(CASE_SMALL_Q, (FAMILY_C5_JOIN,))
    if p == 0:
        return ExtremalCase(CASE_G1_G2, (FAMILY_G1, FAMILY_G2))
    if p <= r - 3:
        return ExtremalCase(CASE_G1_G2_G3, (FAMILY_G1, FAMILY_G2, FAMILY_G3))
    if p == r - 2:
        return ExtremalCase(CASE_G2_G3, (FAMILY_G2, FAMILY_G3))
    return ExtremalCase(CASE_G3_ONLY, (FAMILY_G3,))


def intersection_lower_bound(sizes: list[int], union_size: int) -> int:
    """Lower bound sum(|V_i|) - (t-1)|union V_i| on |intersection V_i|.

    May be negative, in which case the bound is vacuous but still valid.
    """
    if not sizes:
        raise ValueError("need at least one set size")
    if any(s < 0 for s in sizes) or union_size < 0:
        raise ValueError("sizes must be non-negative")
    return sum(sizes) - (len(sizes) - 1) * union_size
