"""Named graphs and graph families: Turán graphs, pentagon blow-ups, the
three extremal join families, generalized books, and the near-complete
multipartite graphs obtained by shifting one edge inside a part.

Every member of a named family is described by a spec (blow-up profile,
join order m) and built from it in one place, _c5_join, as
C5[profile] v T_{r-2}(m).  Family builders return the raw parameterized
members.  The parameter ranges contain rotations and reflections of the
same blow-up, so extremal_family_graphs first maps each spec's profile to
its dihedral normal form and drops repeated specs, then labels what is left
once each with dedup_by_isomorphism, which keeps one canonical
representative per isomorphism class.
"""

from __future__ import annotations

from typing import Sequence

from .canon import dedup_by_isomorphism
from .formulas import (CaseParams, FAMILY_C5_JOIN, FAMILY_G1, FAMILY_G2,
                       FAMILY_G3, extremal_case)
from .graphs import Graph, add_edge, join, remove_edge

# A family member as a spec: (blow-up profile, join order m), the graph
# C5[profile] v T_{r-2}(m) that _c5_join builds.
_Spec = tuple[tuple[int, ...], int]


def complete_multipartite(parts: Sequence[int]) -> Graph:
    """Complete multipartite graph; parts occupy consecutive label ranges."""
    if not parts:
        return Graph(())
    if any(t < 1 for t in parts):
        raise ValueError(f"parts must be positive, got {tuple(parts)}")
    n = sum(parts)
    full = (1 << n) - 1
    rows = []
    start = 0
    for t in parts:
        pmask = ((1 << t) - 1) << start
        rows.extend([full & ~pmask] * t)
        start += t
    return Graph(tuple(rows))


def turan_part_sizes(n: int, r: int) -> tuple[int, ...]:
    """Part sizes of the balanced r-partition, ceilings first."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    q, p = divmod(n, r)
    return (q + 1,) * p + (q,) * (r - p)


def turan_graph(n: int, r: int) -> Graph:
    """Complete r-partite graph on n vertices with near-equal parts."""
    return complete_multipartite(turan_part_sizes(n, r))


def blowup_edge_count(profile: Sequence[int]) -> int:
    """Edge count of the pentagon blow-up: sum of cyclically adjacent products."""
    a, b, c, d, e = profile
    return a * b + b * c + c * d + d * e + e * a


def c5_blowup(profile: Sequence[int]) -> Graph:
    """Pentagon blow-up: independent sets I1..I5 in consecutive label ranges,
    complete links exactly between cyclically consecutive sets.

    Parts of size zero are allowed (the near-complete construction needs
    them); the named families require positive parts and enforce that
    themselves.
    """
    if len(profile) != 5:
        raise ValueError(f"profile needs exactly 5 sizes, got {len(profile)}")
    if any(t < 0 for t in profile):
        raise ValueError(f"profile sizes must be non-negative, got {tuple(profile)}")
    n = sum(profile)
    starts = []
    acc = 0
    for t in profile:
        starts.append(acc)
        acc += t
    pmask = [((1 << profile[i]) - 1) << starts[i] for i in range(5)]
    rows = []
    for i in range(5):
        nbrs = pmask[(i - 1) % 5] | pmask[(i + 1) % 5]
        rows.extend([nbrs] * profile[i])
    return Graph(tuple(rows))


def dihedral_profile(profile: Sequence[int]) -> tuple[int, ...]:
    """Canonical representative of a profile under rotation and reflection."""
    p = tuple(profile)
    best = p
    for q in (p, p[::-1]):
        for s in range(5):
            cand = q[s:] + q[:s]
            if cand < best:
                best = cand
    return best


def _c5_1_profiles(n: int) -> list[tuple[int, ...]]:
    if n % 2 or n < 6:
        raise ValueError(f"family C5^1 needs even n >= 6, got {n}")
    h = n // 2
    return [(h - 2, t, 1, 1, h - t) for t in range(1, h)]


def _c5_2_profiles(n: int) -> list[tuple[int, ...]]:
    if n % 2 or n < 6:
        raise ValueError(f"family C5^2 needs even n >= 6, got {n}")
    h = n // 2
    return [(h - 1, t, 1, 1, h - t - 1) for t in range(1, h - 1)]


def _c5_3_profiles(n: int) -> list[tuple[int, ...]]:
    if n % 2 == 0 or n < 5:
        raise ValueError(f"family C5^3 needs odd n >= 5, got {n}")
    h = (n - 1) // 2
    return [(h - 1, t, 1, 1, h - t) for t in range(1, h)]


def family_c5_1(n: int) -> list[Graph]:
    """Blow-ups C5[n/2-2, t, 1, 1, n/2-t] for 1 <= t <= n/2-1 (even n >= 6)."""
    return [c5_blowup(prof) for prof in _c5_1_profiles(n)]


def family_c5_2(n: int) -> list[Graph]:
    """Blow-ups C5[n/2-1, t, 1, 1, n/2-t-1] for 1 <= t <= n/2-2 (even n >= 6)."""
    return [c5_blowup(prof) for prof in _c5_2_profiles(n)]


def family_c5_3(n: int) -> list[Graph]:
    """Blow-ups C5[(n-1)/2-1, t, 1, 1, (n-1)/2-t] for 1 <= t <= (n-1)/2-1 (odd n >= 5)."""
    return [c5_blowup(prof) for prof in _c5_3_profiles(n)]


def _c5_join(profile: Sequence[int], m: int, r: int) -> Graph:
    """C5[profile] v T_{r-2}(m), or the blow-up alone when m = 0; for
    r = 3 the join part is the edgeless graph on m vertices."""
    core = c5_blowup(profile)
    return join(core, turan_graph(m, r - 2)) if m else core


def _g1_specs(params: CaseParams) -> list[_Spec]:
    q, r, p = params.q, params.r, params.p
    if 2 * q - 1 < 5:
        raise ValueError(
            f"family G1 needs q >= 3 so the odd blow-up family on 2q-1 >= 5"
            f" vertices exists; got q={q}")
    m = q * (r - 2) + p + 1
    return [(prof, m) for prof in _c5_3_profiles(2 * q - 1)]


def _g2_specs(params: CaseParams) -> list[_Spec]:
    q, r, p = params.q, params.r, params.p
    if 2 * q < 6:
        raise ValueError(
            f"family G2 needs q >= 3 so the even blow-up families on 2q >= 6"
            f" vertices exist; got q={q}")
    m = q * (r - 2) + p
    return [(prof, m) for prof in _c5_1_profiles(2 * q) + _c5_2_profiles(2 * q)]


def _g3_specs(params: CaseParams) -> list[_Spec]:
    q, r, p = params.q, params.r, params.p
    if 2 * q + 1 < 5:
        raise ValueError(
            f"family G3 needs q >= 2 so the odd blow-up family on 2q+1 >= 5"
            f" vertices exists; got q={q}")
    m = q * (r - 2) + p - 1
    if m < 0:
        raise ValueError(f"family G3 join part would be negative at {params}")
    return [(prof, m) for prof in _c5_3_profiles(2 * q + 1)]


def _c5_join_specs(params: CaseParams) -> list[_Spec]:
    if params.n < 5:
        raise ValueError(f"need n >= 5, got {params.n}")
    return [((1, 1, 1, 1, 1), params.n - 5)]


def family_g1(params: CaseParams) -> list[Graph]:
    """Members F v T_{r-2}(q(r-2)+p+1) with F from the odd family on 2q-1 vertices."""
    return [_c5_join(prof, m, params.r) for prof, m in _g1_specs(params)]


def family_g2(params: CaseParams) -> list[Graph]:
    """Members F v T_{r-2}(q(r-2)+p) with F from the even families on 2q vertices."""
    return [_c5_join(prof, m, params.r) for prof, m in _g2_specs(params)]


def family_g3(params: CaseParams) -> list[Graph]:
    """Members F v T_{r-2}(q(r-2)+p-1) with F from the odd family on 2q+1 vertices."""
    return [_c5_join(prof, m, params.r) for prof, m in _g3_specs(params)]


def family_c5_join(params: CaseParams) -> list[Graph]:
    """The single small-quotient extremal graph C5 v T_{r-2}(n-5)."""
    return [_c5_join(prof, m, params.r) for prof, m in _c5_join_specs(params)]


_FAMILY_SPECS = {
    FAMILY_G1: _g1_specs,
    FAMILY_G2: _g2_specs,
    FAMILY_G3: _g3_specs,
    FAMILY_C5_JOIN: _c5_join_specs,
}


def _family_specs(params: CaseParams, mode: str) -> list[_Spec]:
    """Specs of the families the case table names for params, with each
    profile in dihedral normal form and each spec once, in first-seen
    order.

    Sound: a rotation or reflection of C5 is an automorphism of C5, so
    normalising a profile only relabels the blow-up, and the join with the
    same T_{r-2}(m) is relabelled with it.  Equal specs build equal graphs,
    so dropping a repeated spec drops only a copy of a class already kept.
    """
    case = extremal_case(params, mode)
    return list(dict.fromkeys(
        (dihedral_profile(prof), m)
        for tag in case.families for prof, m in _FAMILY_SPECS[tag](params)))


def extremal_family_graphs(params: CaseParams, mode: str = "theorem1") -> list[Graph]:
    """Union of the families the case table names for params, deduplicated:
    one canonical representative per class, canonically sorted."""
    return dedup_by_isomorphism([_c5_join(prof, m, params.r)
                                 for prof, m in _family_specs(params, mode)])


def generalized_book(r: int, k: int) -> Graph:
    """Clique K_r joined to k independent page vertices (order r + k)."""
    if r < 2:
        raise ValueError(f"book spine needs r >= 2, got {r}")
    if k < 1:
        raise ValueError(f"book needs k >= 1 pages, got {k}")
    return join(complete_multipartite((1,) * r), Graph((0,) * k))


def near_complete_ks(parts: Sequence[int], s: int) -> Graph:
    """Complete multipartite graph with one edge added inside the first part
    and the cross edges to the second part rearranged so its endpoints have
    disjoint neighbourhoods there.

    The two lowest labels u, v of the first part gain the edge uv; u keeps
    the first s vertices of the second part, v keeps the rest.  The result
    is isomorphic to the pentagon blow-up C5[t1-2, s, 1, 1, t2-s] joined with
    the remaining parts.
    """
    parts = tuple(parts)
    if len(parts) < 3:
        raise ValueError(f"need at least 3 parts, got {len(parts)}")
    if parts[0] < 2:
        raise ValueError(f"first part needs at least 2 vertices, got {parts[0]}")
    if not 0 <= s <= parts[1]:
        raise ValueError(f"need 0 <= s <= {parts[1]}, got s={s}")
    g = complete_multipartite(parts)
    u, v = 0, 1
    g = add_edge(g, u, v)
    start2 = parts[0]
    for w in range(start2 + s, start2 + parts[1]):
        g = remove_edge(g, u, w)
    for w in range(start2, start2 + s):
        g = remove_edge(g, v, w)
    return g
