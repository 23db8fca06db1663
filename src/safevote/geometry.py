"""Barycentric score geometry for three-alternative scoring rules.

Normalized scores of the three alternatives are a point of the standard
2-simplex; the winner is the alternative whose coordinate is largest, so
winner regions partition the simplex and coordinated switching traces a
straight trajectory through them.  All coordinates are exact rationals;
floats appear only when SVG coordinates are formatted.
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
    switch_votes,
    voters_of_type,
)
from safevote.rules import ScoringRule, scores


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

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x1, self.x2, self.x3)


def embed(score_map: Mapping[Alternative, Fraction]) -> BarycentricPoint:
    """Normalize a 3-alternative score map so the coordinates sum to 1."""
    if len(score_map) != 3:
        raise SafevoteError("barycentric embedding needs exactly three alternatives")
    total = sum(score_map.values())
    if total == 0:
        raise SafevoteError("cannot embed an all-zero score map")
    by_index = sorted(score_map.items(), key=lambda item: item[0].index)
    x1, x2, x3 = (Fraction(s) / total for _, s in by_index)
    return BarycentricPoint(x1, x2, x3)


def region_of(point: BarycentricPoint, tiebreak: LinearOrder) -> Alternative:
    """The winning alternative for a score point: largest coordinate,
    ties broken by the rule's tie-break order."""
    domain = tiebreak.domain
    if len(domain) != 3:
        raise SafevoteError("region classification is defined for three alternatives")
    best = max(point.coords)
    tied = {domain.alternatives[i] for i, c in enumerate(point.coords) if c == best}
    return min(tied, key=tiebreak.rank)


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
    """
    if len(rule.domain) != 3:
        raise SafevoteError("trajectories are defined for three alternatives")
    members = sorted(voters_of_type(profile, type_order))
    if not members:
        raise SafevoteError(f"type {type_order.compact} not present in the profile")
    if not 0 <= k_max <= len(members):
        raise SafevoteError(f"k_max={k_max} is outside 0..{len(members)}, the type count")
    start = embed(scores(rule, profile)).coords
    first = embed(scores(rule, switch_votes(profile, frozenset(members[:1]), strategic_order))).coords
    step = [b - a for a, b in zip(start, first)]
    return [BarycentricPoint(*(a + k * d for a, d in zip(start, step))) for k in range(k_max + 1)]


@dataclass(frozen=True)
class FigureSpec:
    """Everything needed to render one simplex figure deterministically."""

    rule: ScoringRule
    base_point: BarycentricPoint
    trajectories: tuple[tuple[BarycentricPoint, ...], ...] = ()


def figure_spec(
    rule: ScoringRule,
    profile: Profile,
    moves: Sequence[tuple[LinearOrder, LinearOrder, int]] = (),
) -> FigureSpec:
    """Build a FigureSpec from a profile and (type, strategic, k_max) moves."""
    base = embed(scores(rule, profile))
    arrows = tuple(
        tuple(trajectory(rule, profile, type_order, strategic_order, k_max))
        for type_order, strategic_order, k_max in moves
    )
    return FigureSpec(rule, base, arrows)


# ---------------------------------------------------------------------------
# Region and boundary computation (exact, in barycentric coordinates)
# ---------------------------------------------------------------------------

Bary = tuple[Fraction, Fraction, Fraction]


def _clip(polygon: list[Bary], f: Callable[[Bary], Fraction]) -> list[Bary]:
    """Sutherland-Hodgman clip of a convex polygon against f(x) <= 0."""
    if not polygon:
        return []
    result: list[Bary] = []
    for i, p in enumerate(polygon):
        q = polygon[(i + 1) % len(polygon)]
        fp, fq = f(p), f(q)
        if fp <= 0:
            result.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = fp / (fp - fq)
            result.append(tuple(p[j] + t * (q[j] - p[j]) for j in range(3)))  # type: ignore[arg-type]
    # Drop consecutive duplicates introduced by on-boundary vertices.
    deduped: list[Bary] = []
    for p in result:
        if not deduped or p != deduped[-1]:
            deduped.append(p)
    if len(deduped) > 1 and deduped[0] == deduped[-1]:
        deduped.pop()
    return deduped


def realizable_region(rule: ScoringRule) -> list[Bary]:
    """Polygon of normalized score vectors the rule can actually produce.

    Each alternative's per-voter score lies between the smallest and the
    largest weight, so each normalized coordinate is pinned between
    w_min/sum and w_max/sum; clipping the simplex by those bounds yields
    the region (a hexagon for Borda-type vectors).
    """
    if len(rule.domain) != 3:
        raise SafevoteError("realizable region is defined for three alternatives")
    total = sum(rule.weights)
    if total == 0:
        raise SafevoteError("score vector sums to zero; region undefined")
    lo = min(rule.weights) / total
    hi = max(rule.weights) / total
    one = Fraction(1)
    polygon: list[Bary] = [(one, Fraction(0), Fraction(0)), (Fraction(0), one, Fraction(0)), (Fraction(0), Fraction(0), one)]
    for i in range(3):
        polygon = _clip(polygon, lambda x, i=i: x[i] - hi)
        polygon = _clip(polygon, lambda x, i=i: lo - x[i])
    return polygon


def region_boundaries(rule: ScoringRule) -> list[tuple[Bary, Bary]]:
    """Equal-score boundary segments between adjacent winner regions.

    For each pair (i, j), the locus x_i = x_j >= x_k clipped to the
    realizable region; degenerate (point or empty) loci are dropped.
    """
    segments: list[tuple[Bary, Bary]] = []
    region = realizable_region(rule)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        k = 3 - i - j
        poly = _clip(list(region), lambda x, i=i, k=k: x[k] - x[i])
        crossings: list[Bary] = []
        g = lambda x, i=i, j=j: x[i] - x[j]  # noqa: E731
        for idx, p in enumerate(poly):
            q = poly[(idx + 1) % len(poly)]
            gp, gq = g(p), g(q)
            if gp == 0:
                crossings.append(p)
            if (gp < 0 < gq) or (gq < 0 < gp):
                t = gp / (gp - gq)
                crossings.append(tuple(p[c] + t * (q[c] - p[c]) for c in range(3)))  # type: ignore[arg-type]
        unique = sorted(set(crossings))
        if len(unique) >= 2:
            segments.append((unique[0], unique[-1]))
    return segments


# ---------------------------------------------------------------------------
# SVG emission
# ---------------------------------------------------------------------------

#: Size of every rendered figure, in SVG user units.
WIDTH = 480.0
HEIGHT = 440.0
_MARGIN = 40.0


def _to_xy(point: Bary) -> tuple[float, float]:
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
    """
    one = Fraction(1)
    zero = Fraction(0)
    corners: list[Bary] = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
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
    region = realizable_region(spec.rule)
    if region:
        lines.append(
            f'<path class="realizable-region" d="{_path([_to_xy(p) for p in region], close=True)}" '
            'fill="#d9d9d9" stroke="none"/>'
        )
    lines.append(
        f'<path class="simplex" d="{_path([_to_xy(p) for p in corners], close=True)}" '
        'fill="none" stroke="black" stroke-width="1.5"/>'
    )
    for a, b in region_boundaries(spec.rule):
        lines.append(
            f'<path class="region-boundary" d="{_path([_to_xy(a), _to_xy(b)])}" '
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
