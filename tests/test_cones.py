import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gradedk0.cones import (
    Cone,
    OrderForm,
    _cross_validate_facets,
    _field_dot,
    enumerate_window,
    facets_from_generators,
    idot,
)
from gradedk0.errors import InternalCheckError
from gradedk0.presets import preset_ring
from gradedk0.scalars import QQ, PrimeField, QuadraticField, QuadraticReal

F2 = QuadraticField(2)
ORTHANT = Cone.rational([(1, 0), (0, 1)])
CONE_12 = Cone.rational([(1, 0), (1, 2)])
CONE_SQRT2 = Cone([(1, 0), (F2.one(), F2.sqrt_gen())], F2)

points = st.tuples(st.integers(-40, 40), st.integers(-40, 40))


def direction_present(facets, expected, field):
    """expected (as a field vector) is a positive multiple of some facet."""
    expected = [field.coerce(x) for x in expected]
    for h in facets:
        lead = next(i for i, x in enumerate(expected) if not field.is_zero(x))
        if field.is_zero(h[lead]):
            continue
        scale = h[lead] * field.inv(expected[lead])
        if field.sign(scale) > 0 and all(
            hx == ex * scale for hx, ex in zip(h, expected)
        ):
            return True
    return False


class TestFacets:
    def test_orthant(self):
        facets = ORTHANT.facets
        assert len(facets) == 2
        assert direction_present(facets, (1, 0), QQ)
        assert direction_present(facets, (0, 1), QQ)

    def test_cone_12(self):
        # inward perpendiculars checked on both generators:
        # (0,1).(1,0) = 0, (0,1).(1,2) = 2; (2,-1).(1,0) = 2, (2,-1).(1,2) = 0
        facets = CONE_12.facets
        assert len(facets) == 2
        assert direction_present(facets, (0, 1), QQ)
        assert direction_present(facets, (2, -1), QQ)

    def test_cone_sqrt2(self):
        # same construction in Q(sqrt 2): normals y >= 0 and sqrt(2) x - y >= 0
        facets = CONE_SQRT2.facets
        assert len(facets) == 2
        assert direction_present(facets, (0, 1), F2)
        assert direction_present(
            facets, (F2.sqrt_gen(), F2.from_int(-1)), F2
        )

    def test_not_full_dimensional(self):
        with pytest.raises(ValueError):
            facets_from_generators([(1, 1)], QQ)

    def test_quadratic_high_dimension_unsupported(self):
        with pytest.raises(ValueError):
            facets_from_generators(
                [(F2.one(), F2.zero(), F2.zero())] * 3, F2
            )

    def test_generators_satisfy_facets(self):
        for cone in (ORTHANT, CONE_12, CONE_SQRT2):
            for g in cone.generators:
                assert cone.contains(g)

    def test_three_dimensional_orthant(self):
        cone = Cone.rational([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert len(cone.facets) == 3
        for unit in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            assert direction_present(cone.facets, unit, QQ)
        pointed, order = cone.is_pointed()
        assert pointed and order.gamma0 == (1, 1, 1)

    def test_three_dimensional_pyramid(self):
        # cone over a square: four facets, each spanned by two adjacent rays;
        # the facet through (1,0,1) and (0,1,1) solves a+c = b+c = 0
        gens = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
        cone = Cone.rational(gens)
        facets = cone.facets
        assert len(facets) == 4
        for h in [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)]:
            assert direction_present(facets, h, QQ)
        pointed, order = cone.is_pointed()
        assert pointed
        for g in gens:
            assert idot(order.gamma0, g) > 0
        assert cone.contains((0, 0, 5))
        assert not cone.contains((2, 0, 1))

    def test_one_dimensional_cone(self):
        cone = Cone.rational([(3,)])
        assert cone.facets == ((Fraction(1),),)
        pointed, order = cone.is_pointed()
        assert pointed and order.gamma0 == (1,)
        assert cone.contains((7,)) and not cone.contains((-1,))


class TestCrossValidation:
    """Each facet check fires on a tampered facet list of the Q3 cone."""

    CONE = Cone.rational([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])

    def test_derived_facets_pass(self):
        gens = [list(g) for g in self.CONE.generators]
        _cross_validate_facets(gens, list(self.CONE.facets), QQ, 3)

    @pytest.mark.parametrize("left_out", range(4))
    def test_missing_facet_admits_outside_ray(self, left_out):
        facets = [h for i, h in enumerate(self.CONE.facets) if i != left_out]
        gens = [list(g) for g in self.CONE.generators]
        with pytest.raises(InternalCheckError, match="admits a ray outside the generated cone"):
            _cross_validate_facets(gens, facets, QQ, 3)

    def test_extra_normal_violated_by_generator(self):
        facets = list(self.CONE.facets) + [(Fraction(1), Fraction(-1), Fraction(0))]
        gens = [list(g) for g in self.CONE.generators]
        with pytest.raises(InternalCheckError, match="generator violates derived facet"):
            _cross_validate_facets(gens, facets, QQ, 3)


class TestConeConstruction:
    def test_zero_generator_rejected(self):
        with pytest.raises(ValueError):
            Cone.rational([(0, 0), (1, 0)])

    def test_unordered_scalars_rejected(self):
        with pytest.raises(ValueError):
            Cone([(1, 0)], PrimeField(7))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Cone.rational([(1, 0), (1,)])


class TestPointedness:
    def test_orthant(self):
        pointed, order = ORTHANT.is_pointed()
        assert pointed and order.gamma0 == (1, 1)

    def test_line_not_pointed(self):
        cone = Cone.rational([(1, 0), (-1, 0)])
        pointed, order = cone.is_pointed()
        assert not pointed and order is None
        x, y = cone.opposite_pair()
        assert tuple(-c for c in x) == tuple(y)
        assert any(c != 0 for c in x)

    def test_half_plane_not_pointed(self):
        cone = Cone.rational([(1, 0), (-1, 0), (0, 1)])
        pointed, _ = cone.is_pointed()
        assert not pointed

    def test_quadratic_cone(self):
        pointed, order = CONE_SQRT2.is_pointed()
        assert pointed
        assert order.gamma0 == (1, 0)
        # witness is strictly positive on the generators, exactly
        for g in CONE_SQRT2.generators:
            acc = F2.zero()
            for w, x in zip(order.gamma0, g):
                acc = acc + x * w
            assert acc.sign() > 0

    def test_single_ray_pointed(self):
        cone = Cone.rational([(1, 1)])
        pointed, order = cone.is_pointed()
        assert pointed
        assert idot(order.gamma0, (1, 1)) > 0

    def test_witness_strictly_positive_always(self):
        for cone in (ORTHANT, CONE_12, CONE_SQRT2):
            pointed, order = cone.is_pointed()
            assert pointed
            for g in cone.generators:
                acc = cone.field.zero()
                for w, x in zip(order.gamma0, g):
                    acc = acc + x * w
                assert cone.field.sign(acc) > 0


class TestFullDimensional:
    def test_examples(self):
        assert ORTHANT.is_full_dimensional()
        assert not Cone.rational([(1, 1)]).is_full_dimensional()
        # determinant of ((1,0),(1,2)) is 2, nonzero
        assert CONE_12.is_full_dimensional()


class TestContains:
    def test_examples(self):
        # (2,3): 3 >= 0 and 2*2 - 3 = 1 >= 0
        assert CONE_12.contains((2, 3))
        # (0,1): 2*0 - 1 < 0
        assert not CONE_12.contains((0, 1))
        assert CONE_12.contains((0, 0))
        assert ORTHANT.contains((0, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ORTHANT.contains((1, 2, 3))


MEMBERSHIP_CONES = {
    "R1": preset_ring("R1").cone,
    "R2": preset_ring("R2").cone,
    "R3": preset_ring("R3").cone,
    "Q3": Cone.rational([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]),
}


def integer_ray(g):
    """Primitive integer vector along a rational generator; None if irrational."""
    if any(isinstance(x, QuadraticReal) and x.b for x in g):
        return None
    fr = [Fraction(x.a) if isinstance(x, QuadraticReal) else Fraction(x) for x in g]
    m = math.lcm(*(f.denominator for f in fr))
    return tuple(int(f * m) for f in fr)


def boundary_points(cone):
    """The origin, integer points on the generator rays and on the planes
    through two of them, and for Q(sqrt 2) points just off the irrational ray."""
    rays = [r for r in map(integer_ray, cone.generators) if r is not None]
    pts = [(0,) * cone.n]
    for r in rays:
        pts += [tuple(k * x for x in r) for k in (1, 2, 5)]
        for s in rays:
            pts.append(tuple(x + y for x, y in zip(r, s)))
    if isinstance(cone.field, QuadraticField):
        # convergents of sqrt 2 alternate sides of the ray through (1, sqrt 2)
        pts += [(1, 1), (2, 3), (5, 7), (12, 17), (29, 41), (70, 99)]
    return pts


def assert_membership_matches_facet_signs(cone, point):
    field = cone.field
    vec = [field.coerce(x) for x in point]
    signs = [field.sign(_field_dot(h, vec, field)) for h in cone.facets]
    assert cone.contains(point) == all(s >= 0 for s in signs)
    assert cone.contains_strictly(point) == all(s > 0 for s in signs)


def cone_points(cone):
    ints = st.integers(-60, 60)
    return st.one_of(
        st.tuples(*[ints] * cone.n), st.sampled_from(boundary_points(cone))
    )


@st.composite
def rational_plane_cones(draw):
    coord = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    g1, g2 = (draw(coord), draw(coord)), (draw(coord), draw(coord))
    assume(g1[0] * g2[1] - g1[1] * g2[0] != 0)
    return Cone.rational([g1, g2])


class TestIntegerMembership:
    """Integer points are decided without the field; the verdict must be the
    exact facet-sign test in the field."""

    @pytest.mark.parametrize("name", sorted(MEMBERSHIP_CONES))
    @given(data=st.data())
    def test_presets(self, name, data):
        cone = MEMBERSHIP_CONES[name]
        assert_membership_matches_facet_signs(cone, data.draw(cone_points(cone)))

    @given(cone=rational_plane_cones(), data=st.data())
    def test_random_rational_plane_cones(self, cone, data):
        assert_membership_matches_facet_signs(cone, data.draw(cone_points(cone)))

    def test_boundary_points_hit_facets(self):
        for cone in MEMBERSHIP_CONES.values():
            on_facet = [
                p
                for p in boundary_points(cone)
                if cone.contains(p) and not cone.contains_strictly(p)
            ]
            assert len(on_facet) > 1


class TestCompare:
    ORDER = OrderForm((2, 3))

    def test_examples(self):
        assert self.ORDER.compare((1, 0), (0, 1)) == -1
        # tie 6 = 6 broken by ascending lex: (0,2) < (3,0)
        assert self.ORDER.compare((3, 0), (0, 2)) == 1
        assert self.ORDER.compare((4, -1), (4, -1)) == 0

    @given(points, points)
    def test_trichotomy(self, a, b):
        c1, c2 = self.ORDER.compare(a, b), self.ORDER.compare(b, a)
        assert c1 == -c2
        assert (c1 == 0) == (a == b)

    @given(points, points, points)
    def test_transitive(self, a, b, c):
        if self.ORDER.compare(a, b) <= 0 and self.ORDER.compare(b, c) <= 0:
            assert self.ORDER.compare(a, c) <= 0

    @given(points, points, points)
    def test_translation_invariant(self, a, b, c):
        shifted = self.ORDER.compare(
            tuple(x + y for x, y in zip(a, c)), tuple(x + y for x, y in zip(b, c))
        )
        assert self.ORDER.compare(a, b) == shifted


def oracle_window(member, gamma, base, bound, radius):
    """Independent brute-force box scan; member tests cone membership of x-base."""
    out = []
    for x in product(*[range(b - radius, b + radius + 1) for b in base]):
        if idot(gamma, x) <= bound and member(tuple(p - q for p, q in zip(x, base))):
            out.append(x)
    return set(out)


def in_orthant(d):
    return d[0] >= 0 and d[1] >= 0


def in_cone_12(d):
    return d[1] >= 0 and 2 * d[0] - d[1] >= 0


def in_cone_sqrt2(d):
    # y >= 0 and sqrt(2) x >= y, exactly: x >= 0 and y^2 <= 2 x^2
    return d[1] >= 0 and d[0] >= 0 and d[1] * d[1] <= 2 * d[0] * d[0]


class TestEnumerateWindow:
    def test_orthant_example(self):
        order = OrderForm((2, 3))
        got = enumerate_window(order, ORTHANT, (0, 0), 5)
        assert got == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]
        assert set(got) == oracle_window(in_orthant, (2, 3), (0, 0), 5, 8)

    def test_sqrt2_example(self):
        order = OrderForm((1, 0))
        got = enumerate_window(order, CONE_SQRT2, (0, 0), 2)
        assert got == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
        assert set(got) == oracle_window(in_cone_sqrt2, (1, 0), (0, 0), 2, 6)

    def test_empty_window(self):
        order = OrderForm((2, 3))
        assert enumerate_window(order, ORTHANT, (1, 1), 0) == []

    def test_matches_oracle_and_sorted(self):
        import random

        rng = random.Random(23)
        cases = [
            (ORTHANT, OrderForm((2, 3)), in_orthant),
            (CONE_12, OrderForm((1, 1)), in_cone_12),
            (CONE_SQRT2, OrderForm((1, 0)), in_cone_sqrt2),
        ]
        for cone, order, member in cases:
            for _ in range(10):
                base = (rng.randint(-3, 3), rng.randint(-3, 3))
                bound = rng.randint(-2, 10)
                got = enumerate_window(order, cone, base, bound)
                radius = 4 * (abs(bound) + sum(abs(b) for b in base) + 2)
                assert set(got) == oracle_window(
                    member, order.gamma0, base, bound, radius
                )
                for p in got:
                    assert all(abs(x - b) <= radius for x, b in zip(p, base))
                for a, b in zip(got, got[1:]):
                    assert order.compare(a, b) < 0

    def test_unbounded_slice_rejected(self):
        order = OrderForm((1, -1))
        with pytest.raises(ValueError):
            enumerate_window(order, ORTHANT, (0, 0), 5)

    def test_base_affects_degrees(self):
        order = OrderForm((1, 1))
        got = enumerate_window(order, ORTHANT, (1, 1), 3)
        # gamma ties at 3 broken by ascending lex: (1,2) before (2,1)
        assert got == [(1, 1), (1, 2), (2, 1)]


class TestInteriorVector:
    def test_orthant(self):
        assert ORTHANT.interior_vector() == (1, 1)

    def test_cone_12(self):
        v = CONE_12.interior_vector()
        assert CONE_12.contains_strictly(v)
        assert v == (1, 1)

    def test_cone_sqrt2(self):
        v = CONE_SQRT2.interior_vector()
        assert CONE_SQRT2.contains_strictly(v)

    def test_requires_pointed_full_dim(self):
        with pytest.raises(ValueError):
            Cone.rational([(1, 0), (-1, 0), (0, 1)]).interior_vector()
        with pytest.raises(ValueError):
            Cone.rational([(1, 1)]).interior_vector()
