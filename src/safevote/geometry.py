"""Barycentric score geometry for three-alternative scoring rules.

Normalized scores of the three alternatives are a point of the standard
2-simplex; the winner is the alternative whose coordinate is largest, so
winner regions partition the simplex and coordinated switching traces a
straight trajectory through them.  The region and boundary geometry runs
on integer coordinates over one common scale S per score vector (a point
is (c1, c2, c3) / S); the public functions return exact `Fraction`s, and
floats appear only in SVG text, as c / S.

Points come from the rule's integer lines (`ScoringRule.lines`): the
profile's sincere totals, read from its one tally per score vector, and
each alternative's change per switcher, so an arrow builds no switched
profile and scores no ballot again.  A score vector with a negative weight
is drawn as w - min(w) (a constant one as -w): the rule's integer points p
shift to p - s (`_shift`), a profile's totals to tally - n * s, and a
switch's steps not at all.  Every ballot gains the same points from the
shift, so the winner is unchanged at every profile, while the scores stay
non-negative and the point stays inside the simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from safevote.core import (
    Alternative,
    LinearOrder,
    Profile,
    SafevoteError,
    voters_of_present_type,
)
from safevote.rules import ScoringRule


@dataclass(frozen=True)
class BarycentricPoint:
    """Normalized scores of the three alternatives; coordinates sum to 1."""

    x1: Fraction
    x2: Fraction
    x3: Fraction

    def __post_init__(self) -> None:
        if self.x1 + self.x2 + self.x3 != 1:
            raise ValueError(f"barycentric coordinates must sum to 1, got {self}")
        if min(self.x1, self.x2, self.x3) < 0:
            raise ValueError(f"barycentric coordinates must be non-negative, got {self}")

    @classmethod
    def _on_simplex(cls, x1: Fraction, x2: Fraction, x3: Fraction) -> "BarycentricPoint":
        """A point whose caller has shown that it lies on the simplex, built
        without `__post_init__`'s Fraction sum and comparisons."""
        point = object.__new__(cls)
        point.__dict__.update(x1=x1, x2=x2, x3=x3)
        return point

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x1, self.x2, self.x3)


def embed(score_map: Mapping[Alternative, Fraction]) -> BarycentricPoint:
    """Normalize a 3-alternative score map so the coordinates sum to 1."""
    return _normalized([s for _, s in sorted(score_map.items(), key=lambda item: item[0].index)])


def _normalized(scores: Sequence[Fraction | int]) -> BarycentricPoint:
    """The point of exact scores, by alternative index, each over their sum:
    `embed` of a score map, and `figure_spec`'s base point of an integer
    tally, in which the weights' common scale cancels."""
    if len(scores) != 3:
        raise SafevoteError("barycentric embedding needs exactly three alternatives")
    if min(scores) < 0:
        raise SafevoteError("cannot embed a negative score; shift the score vector to w - min(w)")
    total = sum(scores)
    if total == 0:
        raise SafevoteError("cannot embed an all-zero score map")
    # Non-negative scores over their non-zero sum lie on the simplex.
    return BarycentricPoint._on_simplex(*(Fraction(s, total) for s in scores))


def _shift(rule: ScoringRule) -> int:
    """The shift s that takes the rule's integer points p to p - s >= 0:
    0 when no point is negative, else min(p).  A constant negative vector
    shifts by 2 * min(p) instead, to -p, which keeps its every point at the
    centre rather than at zero."""
    low = min(rule._points)
    if low >= 0:
        return 0
    return 2 * low if rule.is_constant_vector else low


def trajectory(
    rule: ScoringRule,
    profile: Profile,
    type_order: LinearOrder,
    strategic_order: LinearOrder,
    k_max: int,
) -> list[BarycentricPoint]:
    """Score points as 0..k_max voters of one type switch to one order.

    Every ballot's points sum to the same total, so each switcher moves the
    point by one exact step; a switch that keeps one alternative's score
    moves it parallel to the simplex edge opposite that alternative's vertex.
    The points are read off the rule's integer lines (`_switch_points`).
    """
    point = _switch_points(rule, profile, type_order, strategic_order, k_max)
    return [point(k) for k in range(k_max + 1)]


def _switch_points(
    rule: ScoringRule, profile: Profile, type_order: LinearOrder, strategic_order: LinearOrder, k_max: int
) -> Callable[[int], BarycentricPoint]:
    """The score point after k of 0..k_max switchers, as a function of k.

    After k switchers alternative i sits at `(base[i] + k * step[i]) /
    sum(base)` on the rule's integer lines, in which the weights' common
    scale cancels.  A negative weight is shifted away first, as in
    `figure_spec`.  The simplex invariant is checked once, on the lines:
    steps that sum to 0 keep every point's sum at 1, and lines linear in k
    that are non-negative at k = 0 and k = k_max are so at every k in
    between.
    """
    if len(rule.domain) != 3:
        raise SafevoteError("trajectories are defined for three alternatives")
    count = len(voters_of_present_type(profile, type_order))
    if not 0 <= k_max <= count:
        raise SafevoteError(f"k_max={k_max} is outside 0..{count}, the type count")
    base, step = rule.lines(profile, type_order, strategic_order)
    shift = profile.n * _shift(rule)
    base = [b - shift for b in base]
    total = sum(base)
    if total == 0:
        raise SafevoteError("cannot embed an all-zero score map")
    if sum(step) or min(*base, *(b + k_max * d for b, d in zip(base, step))) < 0:
        raise SafevoteError(f"trajectory lines {base} + k * {step} leave the simplex for k in 0..{k_max}")

    def point(k: int) -> BarycentricPoint:
        return BarycentricPoint._on_simplex(*(Fraction(b + k * d, total) for b, d in zip(base, step)))

    return point


@dataclass(frozen=True)
class FigureSpec:
    """Everything needed to render one simplex figure deterministically.

    An arrow holds its two end points, the `trajectory` points at k = 0 and
    k = k_max, or the one point k = 0 when k_max = 0: an arrow is drawn as
    a straight segment between its ends."""

    rule: ScoringRule
    base_point: BarycentricPoint
    trajectories: tuple[tuple[BarycentricPoint, ...], ...] = ()


def figure_spec(
    rule: ScoringRule,
    profile: Profile,
    moves: Sequence[tuple[LinearOrder, LinearOrder, int]] = (),
) -> FigureSpec:
    """Build a FigureSpec from a profile and (type, strategic, k_max) moves.

    The base point is the rule's integer tally, shifted by n * `_shift`,
    over its sum, with `embed`'s errors.
    Each arrow is checked as `trajectory` checks it, and only its end
    points are built.
    """
    shift = profile.n * _shift(rule)
    base = _normalized([t - shift for t in rule._totals(profile)])
    arrows = []
    for type_order, strategic_order, k_max in moves:
        point = _switch_points(rule, profile, type_order, strategic_order, k_max)
        arrows.append((point(0), point(k_max)) if k_max else (point(0),))
    return FigureSpec(rule, base, tuple(arrows))


# ---------------------------------------------------------------------------
# Region and boundary computation (exact, in integers over a common scale)
# ---------------------------------------------------------------------------

Bary = tuple[Fraction, Fraction, Fraction]

#: A simplex point as integer coordinates over the region's scale S: the
#: point (c1, c2, c3) / S.
Tri = tuple[int, int, int]


def _clip(polygon: list[Tri], f: Callable[[Tri], int]) -> list[Tri]:
    """Sutherland-Hodgman clip of a convex polygon against f(x) <= 0, for
    an affine f.  An edge from p to q crosses f = 0 at
    (fp * q - fq * p) / (fp - fq); a crossing off the integer grid raises
    SafevoteError instead of being rounded."""
    if not polygon:
        return []
    result: list[Tri] = []
    for i, p in enumerate(polygon):
        q = polygon[(i + 1) % len(polygon)]
        fp, fq = f(p), f(q)
        if fp <= 0:
            result.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            crossing = [divmod(fp * b - fq * a, fp - fq) for a, b in zip(p, q)]
            if any(r for _, r in crossing):
                raise SafevoteError(f"edge {p}-{q} crosses the clip line off the integer grid")
            result.append(tuple(c for c, _ in crossing))  # type: ignore[arg-type]
    # Drop consecutive duplicates introduced by on-boundary vertices.
    deduped: list[Tri] = []
    for p in result:
        if not deduped or p != deduped[-1]:
            deduped.append(p)
    if len(deduped) > 1 and deduped[0] == deduped[-1]:
        deduped.pop()
    return deduped


def _region(rule: ScoringRule) -> tuple[list[Tri], int]:
    """`realizable_region` as integer vertices, with its scale S.

    With p the rule's integer points (after the negative-weight shift),
    every vertex of the region and of its boundary segments is where two
    of the lines x_a = p_min / sum(p), x_a = p_max / sum(p) and x_a = x_b
    cross on the simplex.  Two bounds leave 1 - c1 - c2 for the third
    coordinate, a bound and x_a = x_b give c, c, 1 - 2c or c and twice
    (1 - c) / 2, and two equalities give the centre's 1/3: multiples of
    1 / (6 * sum(p)) all, so S = 6 * sum(p) puts each on the integer grid.
    """
    if len(rule.domain) != 3:
        raise SafevoteError("realizable region is defined for three alternatives")
    shift = _shift(rule)
    points = [p - shift for p in rule._points]
    total = sum(points)
    if total == 0:
        raise SafevoteError("score vector sums to zero; region undefined")
    scale = 6 * total
    lo, hi = 6 * min(points), 6 * max(points)
    polygon: list[Tri] = [(scale, 0, 0), (0, scale, 0), (0, 0, scale)]
    for i in range(3):
        polygon = _clip(polygon, lambda x, i=i: x[i] - hi)
        polygon = _clip(polygon, lambda x, i=i: lo - x[i])
    return polygon, scale


def _exact(vertex: Tri, scale: int) -> Bary:
    return tuple(Fraction(c, scale) for c in vertex)  # type: ignore[return-value]


def realizable_region(rule: ScoringRule) -> list[Bary]:
    """Polygon of normalized score vectors the rule can actually produce.

    Each alternative's per-voter score lies between the smallest and the
    largest weight, so each normalized coordinate is pinned between
    w_min/sum and w_max/sum; clipping the simplex by those bounds yields
    the region (a hexagon for Borda-type vectors).  A negative weight is
    shifted away first, as in `figure_spec`.
    """
    region, scale = _region(rule)
    return [_exact(vertex, scale) for vertex in region]


def region_boundaries(rule: ScoringRule) -> list[tuple[Bary, Bary]]:
    """Equal-score boundary segments between adjacent winner regions.

    For each pair (i, j), the locus x_i = x_j >= x_k within the realizable
    region, as its two end points (`_boundaries`).  Degenerate (point or
    empty) loci are dropped.
    """
    region, scale = _region(rule)
    return [(_exact(a, scale), _exact(b, scale)) for a, b in _boundaries(region)]


def _boundaries(region: list[Tri]) -> list[tuple[Tri, Tri]]:
    """`region_boundaries` of a rule whose integer region is given.

    The region is lo <= x_a <= hi on the plane x_1 + x_2 + x_3 = S, with lo
    and hi its smallest and largest coordinates.  Pair (i, j)'s locus
    x_i = x_j = t >= x_k = S - 2t meets it where
    max(lo, (S - hi) / 2, S / 3) <= t <= min(hi, (S - lo) / 2), the same
    range for every pair; S, lo and hi are multiples of 6 (`_region`), so
    both ends lie on the grid.  Each segment runs from its smaller end to
    its larger, as tuples compare.
    """
    scale = sum(region[0])
    lo, hi = min(map(min, region)), max(map(max, region))
    low, high = max(lo, (scale - hi) // 2, scale // 3), min(hi, (scale - lo) // 2)
    if low >= high:
        return []

    def end(i: int, j: int, t: int) -> Tri:
        vertex = [scale - 2 * t] * 3
        vertex[i] = vertex[j] = t
        return tuple(vertex)  # type: ignore[return-value]

    return [
        tuple(sorted((end(i, j, low), end(i, j, high))))  # type: ignore[misc]
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]


# ---------------------------------------------------------------------------
# SVG emission
# ---------------------------------------------------------------------------

#: Size of every rendered figure, in SVG user units.
WIDTH = 480.0
HEIGHT = 440.0
_MARGIN = 40.0


def _to_xy(point: Sequence[float | Fraction]) -> tuple[float, float]:
    """Figure convention: first vertex bottom-left, second bottom-right,
    third at the top."""
    side = WIDTH - 2 * _MARGIN
    tri_height = side * math.sqrt(3) / 2
    base_y = (HEIGHT + tri_height) / 2
    ax, ay = _MARGIN, base_y
    bx, by = _MARGIN + side, base_y
    cx, cy = _MARGIN + side / 2, base_y - tri_height
    x1, x2, x3 = (float(c) for c in point)
    return (x1 * ax + x2 * bx + x3 * cx, x1 * ay + x2 * by + x3 * cy)


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _path(points: Sequence[tuple[float, float]], close: bool = False) -> str:
    parts = [f"{'M' if i == 0 else 'L'} {_fmt(x)} {_fmt(y)}" for i, (x, y) in enumerate(points)]
    if close:
        parts.append("Z")
    return " ".join(parts)


def render_svg(spec: FigureSpec) -> str:
    """Deterministic standalone SVG for one figure spec.

    Emits the simplex outline, the realizable-region polygon, the
    equal-score boundary polylines, the base score point, and one arrow
    per trajectory.  Identical specs produce byte-identical documents.

    Region vertices are placed at c / S: int true division is correctly
    rounded, so it equals `float(Fraction(c, S))` bit for bit.
    """
    corners: list[Tri] = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    lines: list[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" '
        f'viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">',
        "<defs>",
        '<marker id="arrowhead" markerWidth="10" markerHeight="8" refX="9" refY="4" orient="auto">',
        '<path d="M 0 0 L 10 4 L 0 8 Z" fill="black"/>',
        "</marker>",
        "</defs>",
    ]
    region, scale = _region(spec.rule)

    def xy(vertex: Tri) -> tuple[float, float]:
        return _to_xy([c / scale for c in vertex])

    if region:
        lines.append(
            f'<path class="realizable-region" d="{_path([xy(p) for p in region], close=True)}" '
            'fill="#d9d9d9" stroke="none"/>'
        )
    lines.append(
        f'<path class="simplex" d="{_path([_to_xy(p) for p in corners], close=True)}" '
        'fill="none" stroke="black" stroke-width="1.5"/>'
    )
    for a, b in _boundaries(region):
        lines.append(
            f'<path class="region-boundary" d="{_path([xy(a), xy(b)])}" '
            'fill="none" stroke="black" stroke-width="0.8"/>'
        )
    for arrow in spec.trajectories:
        if len(arrow) < 2:
            continue
        start, end = _to_xy(arrow[0].coords), _to_xy(arrow[-1].coords)
        lines.append(
            f'<path class="trajectory" d="{_path([start, end])}" '
            'fill="none" stroke="black" stroke-width="1.2" marker-end="url(#arrowhead)"/>'
        )
    bx, by = _to_xy(spec.base_point.coords)
    lines.append(f'<circle class="base-point" cx="{_fmt(bx)}" cy="{_fmt(by)}" r="3.5" fill="black"/>')
    labels = [a.label for a in spec.rule.domain]
    offsets = [(-14.0, 14.0), (8.0, 14.0), (-4.0, -10.0)]
    for corner, label, (dx, dy) in zip(corners, labels, offsets):
        x, y = _to_xy(corner)
        lines.append(
            f'<text class="vertex-label" x="{_fmt(x + dx)}" y="{_fmt(y + dy)}" '
            f'font-family="serif" font-size="16">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
