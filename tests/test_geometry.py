"""Unit tests for the barycentric score geometry and SVG rendering."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from safevote.core import Domain, LinearOrder, Profile, all_orders, switch_votes, voters_of_type
from safevote.geometry import (
    BarycentricPoint,
    FigureSpec,
    embed,
    figure_spec,
    realizable_region,
    region_boundaries,
    render_svg,
    trajectory,
)
from safevote.rules import ScoringRule, borda, plurality
from safevote.core import SafevoteError

from helpers import region_of

D3 = Domain.from_labels("ABC")


def o(labels: str) -> LinearOrder:
    return LinearOrder.from_labels(labels, D3)


PROFILE_94 = Profile.from_counts(
    [
        (o("ABC"), 17),
        (o("ACB"), 15),
        (o("BAC"), 18),
        (o("BCA"), 16),
        (o("CAB"), 14),
        (o("CBA"), 14),
    ]
)
BORDA_94 = borda(o("BAC"))
GOLDEN_MOVES = [(o("ABC"), o("ACB"), 17), (o("ACB"), o("CAB"), 15)]


class TestBarycentricPoint:
    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            BarycentricPoint(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))

    def test_coordinates_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            BarycentricPoint(Fraction(3, 2), Fraction(-1, 2), Fraction(0))


class TestEmbed:
    def test_94_scores(self):
        point = embed(BORDA_94.scores(PROFILE_94))
        assert point.coords == (Fraction(96, 282), Fraction(99, 282), Fraction(87, 282))

    def test_equal_scores_center(self):
        point = embed({a: Fraction(5) for a in D3})
        assert point.coords == (Fraction(1, 3),) * 3

    def test_vertex(self):
        a, b, c = D3.alternatives
        point = embed({a: Fraction(1), b: Fraction(0), c: Fraction(0)})
        assert point.coords == (1, 0, 0)

    def test_zero_total_rejected(self):
        with pytest.raises(SafevoteError):
            embed({a: Fraction(0) for a in D3})

    def test_negative_score_rejected(self):
        # Scores that are all negative would land inside the simplex, inverted.
        with pytest.raises(SafevoteError, match="negative"):
            embed({a: Fraction(-1 - a.index) for a in D3})

    def test_wrong_arity_rejected(self):
        a, b, _ = D3.alternatives
        with pytest.raises(SafevoteError):
            embed({a: Fraction(1), b: Fraction(1)})


class TestRegionOf:
    def test_94_sincere_region(self):
        point = embed(BORDA_94.scores(PROFILE_94))
        assert region_of(point, BORDA_94.tiebreak).label == "B"

    def test_center_goes_to_tiebreak_head(self):
        center = BarycentricPoint(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
        assert region_of(center, o("BAC")).label == "B"
        assert region_of(center, o("CBA")).label == "C"

    def test_after_ten_switches(self):
        # Ten ABC voters switching to ACB move the score point into C's region.
        from safevote.core import switch_votes, voters_of_type

        members = sorted(voters_of_type(PROFILE_94, o("ABC")))
        switched = switch_votes(PROFILE_94, frozenset(members[:10]), o("ACB"))
        point = embed(BORDA_94.scores(switched))
        assert region_of(point, BORDA_94.tiebreak).label == "C"


def per_k_trajectory(rule, profile, type_order, strategic, k_max):
    """The oracle: the profile rebuilt and re-scored for every k."""
    members = sorted(voters_of_type(profile, type_order))
    return [embed(rule.scores(switch_votes(profile, frozenset(members[:k]), strategic))) for k in range(k_max + 1)]


class TestTrajectory:
    def test_untouched_score_stays_constant(self):
        points = trajectory(BORDA_94, PROFILE_94, o("ABC"), o("ACB"), 17)
        assert len(points) == 18
        assert all(p.x1 == Fraction(96, 282) for p in points)

    def test_second_trajectory_constant_coordinate(self):
        points = trajectory(BORDA_94, PROFILE_94, o("ACB"), o("CAB"), 15)
        assert all(p.x2 == Fraction(99, 282) for p in points)

    def test_starts_at_sincere_point(self):
        points = trajectory(BORDA_94, PROFILE_94, o("ABC"), o("ACB"), 5)
        assert points[0] == embed(BORDA_94.scores(PROFILE_94))

    def test_collinearity_exact(self):
        points = trajectory(BORDA_94, PROFILE_94, o("ABC"), o("ACB"), 17)
        base = points[0].coords
        d0 = tuple(points[1].coords[i] - base[i] for i in range(3))
        for p in points[2:]:
            d = tuple(p.coords[i] - base[i] for i in range(3))
            assert d0[0] * d[1] - d0[1] * d[0] == 0
            assert d0[1] * d[2] - d0[2] * d[1] == 0

    def test_absent_type_rejected(self):
        profile = Profile((o("ABC"), o("BAC")))
        with pytest.raises(SafevoteError, match="type CBA not present in the profile"):
            trajectory(BORDA_94, profile, o("CBA"), o("ABC"), 1)

    def test_k_max_bounded_by_count(self):
        with pytest.raises(SafevoteError):
            trajectory(BORDA_94, PROFILE_94, o("ABC"), o("ACB"), 18)

    def test_negative_k_max_rejected(self):
        with pytest.raises(SafevoteError):
            trajectory(BORDA_94, PROFILE_94, o("ABC"), o("ACB"), -1)

    def test_matches_per_k_rebuild_94(self):
        for type_order in PROFILE_94.types_present():
            count = len(voters_of_type(PROFILE_94, type_order))
            for strategic in all_orders(D3):
                if strategic != type_order:
                    for k_max in (0, 1, count):
                        expected = per_k_trajectory(BORDA_94, PROFILE_94, type_order, strategic, k_max)
                        assert trajectory(BORDA_94, PROFILE_94, type_order, strategic, k_max) == expected

    @pytest.mark.parametrize(
        "lines, k_max, ok",
        [(((3, 3, 3), [1, 0, 0]), 1, False), (((3, 3, 3), [-1, 1, 0]), 3, True), (((3, 3, 3), [-1, 1, 0]), 4, False)],
        ids=["steps-not-summing-to-zero", "last-point-on-an-edge", "last-point-off-the-simplex"],
    )
    def test_simplex_invariant_checked_on_the_lines(self, monkeypatch, lines, k_max, ok):
        # Lines a scoring rule cannot produce, to reach the one check that
        # replaces every point's own.
        monkeypatch.setattr(ScoringRule, "lines", lambda *args: lines)
        profile = Profile.from_counts([(o("ABC"), 4)])
        if ok:
            assert trajectory(BORDA_94, profile, o("ABC"), o("BAC"), k_max)[-1].coords == (0, Fraction(2, 3), Fraction(1, 3))
        else:
            with pytest.raises(SafevoteError, match="leave the simplex"):
                trajectory(BORDA_94, profile, o("ABC"), o("BAC"), k_max)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_k_rebuild(self, data):
        weights = sorted(data.draw(st.lists(st.fractions(0, 3, max_denominator=7), min_size=3, max_size=3)))
        assume(sum(weights) > 0)
        rule = ScoringRule(tuple(reversed(weights)), LinearOrder(tuple(data.draw(st.permutations(D3.alternatives)))))
        profile = Profile(tuple(data.draw(st.lists(st.sampled_from(all_orders(D3)), min_size=1, max_size=25))))
        type_order = data.draw(st.sampled_from(profile.types_present()))
        strategic = data.draw(st.sampled_from([L for L in all_orders(D3) if L != type_order]))
        k_max = data.draw(st.integers(0, len(voters_of_type(profile, type_order))))
        expected = per_k_trajectory(rule, profile, type_order, strategic, k_max)
        assert trajectory(rule, profile, type_order, strategic, k_max) == expected


class TestFigureReadsTheTally:
    def test_golden_arrows_build_no_profile(self, scanned, monkeypatch):
        profile = scanned(PROFILE_94)
        expected = figure_spec(BORDA_94, PROFILE_94, GOLDEN_MOVES)

        def build(*args):
            raise AssertionError("the figure built a switched profile")

        monkeypatch.setattr(Profile, "__post_init__", build)
        assert figure_spec(BORDA_94, profile, GOLDEN_MOVES) == expected
        assert profile.counts.scans == 1


class TestFigureArrows:
    @pytest.mark.parametrize(
        "rule",
        [BORDA_94, plurality(o("ABC")), ScoringRule((Fraction(3, 2), Fraction(1, 2), -1), o("BAC"))],
        ids=["borda", "plurality", "negative-weight"],
    )
    def test_arrows_are_the_trajectory_ends(self, rule):
        moves = [
            (type_order, strategic, k_max)
            for type_order in PROFILE_94.types_present()
            for strategic in all_orders(D3)
            if strategic != type_order
            for k_max in (0, 1, 5, len(voters_of_type(PROFILE_94, type_order)))
        ]
        spec = figure_spec(rule, PROFILE_94, moves)
        full = [tuple(trajectory(rule, PROFILE_94, *move)) for move in moves]
        for arrow, points, (_, _, k_max) in zip(spec.trajectories, full, moves, strict=True):
            assert arrow == ((points[0], points[-1]) if k_max else points)
        assert render_svg(FigureSpec(rule, spec.base_point, tuple(full))) == render_svg(spec)


class TestRealizableRegion:
    def test_borda_region_is_hexagon(self):
        region = realizable_region(borda(o("ABC")))
        assert len(region) == 6
        for point in region:
            assert sum(point) == 1
            assert all(0 <= c <= Fraction(2, 3) for c in point)

    def test_plurality_region_is_full_simplex(self):
        region = realizable_region(plurality(o("ABC")))
        assert sorted(region) == [
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
        ]

    @pytest.mark.parametrize("weights", [(2, 1, 0), (1, 0, 0), (5, 2, 1), (1, 1, 0)])
    def test_int_weights_keep_exact_geometry(self, weights):
        plain, exact = ScoringRule(weights, o("BAC")), ScoringRule.from_ints(weights, o("BAC"))
        assert plain.weights == exact.weights and plain.config_text() == exact.config_text()
        region, boundaries = realizable_region(plain), region_boundaries(plain)
        assert region == realizable_region(exact) and boundaries == region_boundaries(exact)
        points = [*region, *(point for segment in boundaries for point in segment)]
        assert all(type(c) is Fraction for point in points for c in point)

    def test_boundaries_lie_on_equal_score_loci(self):
        pairs = ((0, 1), (0, 2), (1, 2))
        segments = region_boundaries(borda(o("ABC")))
        assert len(segments) == 3
        for (i, j), (a, b) in zip(pairs, segments):
            assert a[i] == a[j]
            assert b[i] == b[j]


def fraction_clip(polygon, f):
    """The oracle clip: Sutherland-Hodgman against f(x) <= 0 in Fractions."""
    if not polygon:
        return []
    result = []
    for i, p in enumerate(polygon):
        q = polygon[(i + 1) % len(polygon)]
        fp, fq = f(p), f(q)
        if fp <= 0:
            result.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = fp / (fp - fq)
            result.append(tuple(p[j] + t * (q[j] - p[j]) for j in range(3)))
    deduped = []
    for p in result:
        if not deduped or p != deduped[-1]:
            deduped.append(p)
    if len(deduped) > 1 and deduped[0] == deduped[-1]:
        deduped.pop()
    return deduped


def fraction_region(rule):
    """The oracle `realizable_region`: the simplex clipped in Fractions."""
    if len(rule.domain) != 3:
        raise SafevoteError("realizable region is defined for three alternatives")
    weights, low = rule.weights, min(rule.weights)
    if low < 0:
        # w - min(w), and -w for a constant vector, which w - min(w) would zero.
        weights = [w - (2 * low if rule.is_constant_vector else low) for w in weights]
    total = sum(weights)
    if total == 0:
        raise SafevoteError("score vector sums to zero; region undefined")
    lo, hi = min(weights) / total, max(weights) / total
    one, zero = Fraction(1), Fraction(0)
    polygon = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
    for i in range(3):
        polygon = fraction_clip(polygon, lambda x, i=i: x[i] - hi)
        polygon = fraction_clip(polygon, lambda x, i=i: lo - x[i])
    return polygon


def fraction_boundaries(region):
    """The oracle `region_boundaries` of the oracle's region, clipped in Fractions."""
    segments = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        k = 3 - i - j
        poly = fraction_clip(list(region), lambda x, i=i, k=k: x[k] - x[i])
        on_line = fraction_clip(fraction_clip(poly, lambda x: x[i] - x[j]), lambda x: x[j] - x[i])
        unique = sorted(set(on_line))
        if len(unique) >= 2:
            segments.append((unique[0], unique[-1]))
    return segments


def outcome(function, rule):
    """What `function(rule)` returns, or the type and text of its error."""
    try:
        return function(rule)
    except SafevoteError as exc:
        return type(exc), str(exc)


def fraction_oracle(rule):
    """The `outcome`s of the oracle's region and boundaries: the region is
    clipped once, and its error is the error of both."""
    region = outcome(fraction_region, rule)
    return region, fraction_boundaries(region) if isinstance(region, list) else region


WEIGHT = st.one_of(st.integers(-30, 30), st.fractions(-5, 5, max_denominator=12))


class TestIntegerGeometry:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_fraction_clip(self, data):
        weights = sorted(data.draw(st.lists(WEIGHT, min_size=3, max_size=3)), reverse=True)
        shape = data.draw(st.sampled_from(["any", "constant", "zero"]))
        if shape != "any":
            weights = [weights[0] if shape == "constant" else 0] * 3
        rule = ScoringRule(tuple(weights), LinearOrder(tuple(data.draw(st.permutations(D3.alternatives)))))
        region = outcome(realizable_region, rule)
        oracle_region, oracle_boundaries = fraction_oracle(rule)
        assert region == oracle_region
        assert outcome(region_boundaries, rule) == oracle_boundaries
        if isinstance(region, list):
            assert all(type(c) is Fraction for point in region for c in point)

    def test_matches_the_fraction_clip_on_a_grid(self):
        # Every non-increasing triple of n / q for n in -6..9 and q in 1..3:
        # regions that touch the simplex's edges or not, triangles, the
        # centre alone and the zero vector.  Then draws that the test above
        # rarely makes: near the centre, two equal weights, constant vectors
        # and a negative weight.
        values = sorted({Fraction(n, q) for n in range(-6, 10) for q in (1, 2, 3)}, reverse=True)
        rare = [(13, 12, 12), (5, 5, 2), (4, 1, 1), (1, 1, 1), (-1, -1, -1), (Fraction(3, 2), Fraction(1, 2), -1)]
        for weights in [*itertools.combinations_with_replacement(values, 3), *rare]:
            rule = ScoringRule(weights, o("BAC"))
            oracle_region, oracle_boundaries = fraction_oracle(rule)
            assert outcome(realizable_region, rule) == oracle_region, weights
            assert outcome(region_boundaries, rule) == oracle_boundaries, weights

    def test_zero_vector_and_four_alternatives_fail_as_the_oracle(self):
        zero = ScoringRule.from_ints((0, 0, 0), o("ABC"))
        four = borda(LinearOrder.from_labels("ABCD", Domain.from_labels("ABCD")))
        for rule in (zero, four):
            for function, expected in zip((realizable_region, region_boundaries), fraction_oracle(rule)):
                assert outcome(function, rule) == expected
                assert outcome(function, rule)[0] is SafevoteError

    @given(c=st.integers(-(10**80), 10**80), scale=st.integers(1, 10**60))
    def test_true_division_is_the_fraction_float(self, c, scale):
        # `render_svg` places a vertex at c / S instead of float(Fraction(c, S)).
        assert c / scale == float(Fraction(c, scale))


class TestRenderSvg:
    def test_structure_with_two_trajectories(self):
        svg = render_svg(figure_spec(BORDA_94, PROFILE_94, GOLDEN_MOVES))
        assert svg.startswith("<?xml")
        assert svg.count('class="trajectory"') == 2
        assert svg.count('class="base-point"') == 1
        assert svg.count('class="region-boundary"') == 3
        assert 'class="realizable-region"' in svg
        assert svg.count('class="vertex-label"') == 3

    def test_empty_trajectories(self):
        svg = render_svg(figure_spec(BORDA_94, PROFILE_94))
        assert svg.count('class="trajectory"') == 0
        assert svg.count('class="base-point"') == 1

    def test_byte_determinism(self):
        spec = figure_spec(BORDA_94, PROFILE_94, [(o("ABC"), o("ACB"), 17)])
        assert render_svg(spec) == render_svg(spec)


def random_elections(low: int):
    """300 seeded draws of a rule with weights in low..9 and a profile,
    less those with the zero vector."""
    rng = random.Random(2024)
    orders = all_orders(D3)
    for _ in range(300):
        weights = tuple(sorted((rng.randint(low, 9) for _ in range(3)), reverse=True))
        if weights == (0, 0, 0):
            continue
        rule = ScoringRule.from_ints(weights, rng.choice(orders))
        profile = Profile.from_counts(
            [(order, rng.randint(0, 8)) for order in orders] + [(orders[0], 1)]
        )
        yield rule, profile


class TestGeometricAlgebraicAgreement:
    def test_region_matches_evaluate_on_random_profiles(self):
        for rule, profile in random_elections(0):
            point = embed(rule.scores(profile))
            assert point == figure_spec(rule, profile).base_point
            assert sum(point.coords) == 1
            assert region_of(point, rule.tiebreak) == rule.evaluate(profile)

    def test_region_matches_evaluate_under_negative_weights(self):
        for rule, profile in random_elections(-9):
            point = figure_spec(rule, profile).base_point
            assert region_of(point, rule.tiebreak) == rule.evaluate(profile)

    def test_veto_with_a_negative_weight_names_the_winner(self):
        profile = Profile.from_counts([(o("ABC"), 3), (o("BCA"), 1)])
        veto = ScoringRule.from_ints((0, 0, -1), o("ABC"))
        shifted = ScoringRule.from_ints((1, 1, 0), o("ABC"))
        point = figure_spec(veto, profile).base_point
        # A and C are vetoed once and three times: B wins, and C loses.
        assert region_of(point, veto.tiebreak) == veto.evaluate(profile) == D3.by_label("B")
        assert point == figure_spec(shifted, profile).base_point
        assert realizable_region(veto) == realizable_region(shifted)
        assert region_boundaries(veto) == region_boundaries(shifted)

    def test_constant_negative_vector_stays_at_the_centre(self):
        # w - min(w) would be the zero vector, which has no point at all.
        profile = Profile.from_counts([(o("ABC"), 3), (o("BCA"), 1)])
        constant = ScoringRule.from_ints((-1, -1, -1), o("CAB"))
        point = figure_spec(constant, profile, [(o("ABC"), o("ACB"), 3)]).base_point
        assert point.coords == (Fraction(1, 3),) * 3
        assert region_of(point, constant.tiebreak) == constant.evaluate(profile) == D3.by_label("C")
