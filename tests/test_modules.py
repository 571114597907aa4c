import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedk0.cones import vadd, vscale, vsub
from gradedk0.errors import InternalCheckError
from gradedk0.modules import (
    GradedMatrix,
    IdempotentPresentation,
    _geometric_inverse,
    conjugator,
    filtration_idempotent,
    filtration_window,
    graded_dimension,
    reduce_matrix,
    splitting_difference_check,
    unipotent_inverse,
    window_index,
)
from gradedk0.presets import preset_ring, random_idempotent
from gradedk0.scalars import PrimeField, ProductElem, ProductRing, base_ring_from_descriptor

R1 = preset_ring("R1")
R1_23 = preset_ring("R1", gamma0=(2, 3))
R2 = preset_ring("R2")

SHIFTS = ((0, 0), (1, 0))


def worked_presentation(ring):
    """e = [[1, X], [0, 0]] on shifts ((0,0), (1,0))."""
    x = ring.monomial((1, 0))
    m = GradedMatrix(
        ring, SHIFTS, SHIFTS, [[ring.one(), x], [ring.zero(), ring.zero()]]
    )
    return IdempotentPresentation(ring, SHIFTS, m)


class TestGradedMatrix:
    def test_identity_is_neutral(self):
        pres = worked_presentation(R1)
        ident = GradedMatrix.identity(R1, SHIFTS)
        assert ident.compose(pres.matrix) == pres.matrix
        assert pres.matrix.compose(ident) == pres.matrix

    def test_worked_matrix_is_idempotent(self):
        e = worked_presentation(R1).matrix
        assert e.compose(e) == e

    def test_inhomogeneous_entry_rejected(self):
        x = R1.monomial((1, 0))
        with pytest.raises(ValueError):
            GradedMatrix(R1, ((0, 0),), ((0, 0),), [[x]])

    def test_shift_mismatch_rejected(self):
        a = GradedMatrix.identity(R1, ((0, 0),))
        b = GradedMatrix.identity(R1, ((1, 0),))
        with pytest.raises(ValueError):
            a.compose(b)
        with pytest.raises(ValueError):
            a.add(b)

    def test_non_idempotent_rejected(self):
        x = R1.monomial((1, 0))
        m = GradedMatrix(R1, SHIFTS, SHIFTS, [[R1.zero(), x], [R1.zero(), R1.zero()]])
        # m*m = 0 != m
        with pytest.raises(ValueError):
            IdempotentPresentation(R1, SHIFTS, m)


class TestReduceMatrix:
    def test_worked_example(self):
        blocks = reduce_matrix(worked_presentation(R1))
        assert blocks == {(0, 0): [[Fraction(1)]], (1, 0): [[Fraction(0)]]}

    def test_identity_blocks(self):
        pres = IdempotentPresentation.free(R1, ((0, 0), (0, 1)))
        blocks = reduce_matrix(pres)
        assert blocks == {(0, 0): [[Fraction(1)]], (0, 1): [[Fraction(1)]]}

    def test_zero_matrix(self):
        z = GradedMatrix.zero(R1, SHIFTS, SHIFTS)
        pres = IdempotentPresentation(R1, SHIFTS, z)
        blocks = reduce_matrix(pres)
        assert blocks == {(0, 0): [[Fraction(0)]], (1, 0): [[Fraction(0)]]}

    def test_repeated_shifts_grouped(self):
        pres = IdempotentPresentation.free(R1, ((1, 0), (1, 0)))
        blocks = reduce_matrix(pres)
        assert blocks == {(1, 0): [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]}


class TestConjugator:
    def test_worked_example_hand_values(self):
        pres = worked_presentation(R1)
        dec = conjugator(pres)
        x = R1.monomial((1, 0))
        u_expected = GradedMatrix(
            R1, SHIFTS, SHIFTS, [[R1.one(), x], [R1.zero(), R1.one()]]
        )
        u_inv_expected = GradedMatrix(
            R1, SHIFTS, SHIFTS, [[R1.one(), -1 * x], [R1.zero(), R1.one()]]
        )
        assert dec.u == u_expected
        assert dec.u_inv == u_inv_expected
        assert dec.blocks == {(0, 0): [[Fraction(1)]], (1, 0): [[Fraction(0)]]}
        # correction squares to zero: gamma degree of the only slot is 1
        assert dec.nilpotency_bound == 1
        nu = dec.u.sub(GradedMatrix.identity(R1, SHIFTS))
        assert nu.compose(nu).is_zero()

    def test_block_diagonal_fixed(self):
        pres = IdempotentPresentation.from_base_idempotent(
            R1, (1, 1), [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]]
        )
        dec = conjugator(pres)
        assert dec.u == GradedMatrix.identity(R1, pres.shifts)

    def test_identity_fixed(self):
        pres = IdempotentPresentation.free(R1, SHIFTS)
        dec = conjugator(pres)
        assert dec.u == GradedMatrix.identity(R1, SHIFTS)

    def test_conjugation_identity_random(self):
        rng = random.Random(42)
        for ring in (R1, R2, preset_ring("R2", base=PrimeField(7))):
            for _ in range(10):
                pres = random_idempotent(ring, rng, max_summands=4, shift_bound=6)
                dec = conjugator(pres)
                reduced = GradedMatrix.from_base_blocks(ring, pres.shifts, dec.blocks)
                ident = GradedMatrix.identity(ring, pres.shifts)
                assert dec.u.compose(pres.matrix).compose(dec.u_inv) == reduced
                assert dec.u.compose(dec.u_inv) == ident
                assert dec.u_inv.compose(dec.u) == ident
                # nilpotency at the derived bound, explicitly
                nu = dec.u.sub(ident)
                power = ident
                for _ in range(dec.nilpotency_bound + 1):
                    power = power.compose(nu)
                assert power.is_zero()

    def test_mirror_also_conjugates(self):
        rng = random.Random(4)
        pres = random_idempotent(R2, rng)
        dec = pres.mirror_decomposition
        reduced = GradedMatrix.from_base_blocks(R2, pres.shifts, dec.blocks)
        assert dec.u.compose(pres.matrix).compose(dec.u_inv) == reduced


class TestTpBlocks:
    def test_worked_example(self):
        blocks = worked_presentation(R1).decomposition.blocks
        assert blocks[(0, 0)] == [[Fraction(1)]]
        assert blocks[(1, 0)] == [[Fraction(0)]]

    def test_free_module(self):
        pres = IdempotentPresentation.free(R1, ((2, 0), (2, 0), (0, 1)))
        blocks = pres.decomposition.blocks
        assert blocks[(2, 0)] == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert blocks[(0, 1)] == [[Fraction(1)]]

    def test_zero_module(self):
        assert IdempotentPresentation.zero(R1).decomposition.blocks == {}


class TestFiltration:
    def test_below_all_shifts_is_zero(self):
        pres = worked_presentation(R1_23)
        p = filtration_idempotent(pres, (-1, -1))
        assert p.matrix.is_zero()

    def test_above_all_shifts_is_identity_on_module(self):
        pres = worked_presentation(R1_23)
        p = filtration_idempotent(pres, (5, 5))
        assert p.matrix == pres.matrix

    def test_worked_middle_stage(self):
        # only the (0,0) block is <= (0,0) under gamma0 = (2,3); the (1,0)
        # block is zero, so the stage is everything: p = e
        pres = worked_presentation(R1_23)
        p = filtration_idempotent(pres, (0, 0))
        assert p.matrix == pres.matrix

    def test_monotone_and_commuting(self):
        rng = random.Random(9)
        for _ in range(8):
            pres = random_idempotent(R1, rng, max_summands=4, shift_bound=4)
            v = R1.cone.interior_vector()
            window = filtration_window(R1, v, window_index(pres, v))
            mats = [filtration_idempotent(pres, a).matrix for a in window]
            for lo, hi in zip(mats, mats[1:]):
                assert lo.compose(hi) == lo
                assert hi.compose(lo) == lo
            for m in mats:
                assert m.compose(pres.matrix) == m
                assert pres.matrix.compose(m) == m

    def test_conjugator_independence_of_image(self):
        rng = random.Random(10)
        for _ in range(8):
            pres = random_idempotent(R1, rng, max_summands=3, shift_bound=4)
            a = (2, 1)
            p = filtration_idempotent(pres, a, pres.decomposition).matrix
            q = filtration_idempotent(pres, a, pres.mirror_decomposition).matrix
            # equal images: each absorbs the other
            assert p.compose(q) == q
            assert q.compose(p) == p

    def test_direct_sum_compatibility(self):
        rng = random.Random(11)
        left = random_idempotent(R1, rng, max_summands=2, shift_bound=3)
        right = random_idempotent(R1, rng, max_summands=2, shift_bound=3)
        both = left.direct_sum(right)
        lb = left.decomposition.blocks
        rb = right.decomposition.blocks
        bb = both.decomposition.blocks
        for b in set(lb) | set(rb):
            size_l = len(lb.get(b, []))
            size_r = len(rb.get(b, []))
            assert len(bb[b]) == size_l + size_r
        a = (2, 2)
        pa = filtration_idempotent(both, a).matrix
        pl = filtration_idempotent(left, a).matrix
        pr = filtration_idempotent(right, a).matrix
        r = len(left.shifts)
        for i, row in enumerate(pa.entries):
            for j, entry in enumerate(row):
                if i < r and j < r:
                    assert entry == pl.entries[i][j]
                elif i >= r and j >= r:
                    assert entry == pr.entries[i - r][j - r]
                else:
                    assert entry.is_zero()

    def test_free_module_generation_oracle(self):
        # for a free module the stage at a is literally the span of the
        # summands with shift <= a: a diagonal 0/1 idempotent
        shifts = ((0, 0), (1, 0), (0, 1), (2, 2))
        pres = IdempotentPresentation.free(R1_23, shifts)
        order = R1_23.order
        for a in [(-1, 0), (0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (5, 5)]:
            p = filtration_idempotent(pres, a)
            expected = GradedMatrix.from_base_blocks(
                R1_23,
                shifts,
                {
                    b: [
                        [
                            Fraction(1 if (i == j and order.leq(b, a)) else 0)
                            for j in range(count)
                        ]
                        for i in range(count)
                    ]
                    for b, count in {
                        s: shifts.count(s) for s in set(shifts)
                    }.items()
                },
            )
            assert p.matrix == expected


class TestWindowIndex:
    def test_whole_ring_needs_one(self):
        pres = IdempotentPresentation.free(R1, ((0, 0),))
        assert window_index(pres, (1, 1)) == 1

    def test_zero_module(self):
        assert window_index(IdempotentPresentation.zero(R1), (1, 1)) == 0

    def test_two_shift_example(self):
        pres = IdempotentPresentation.free(R1_23, ((2, 0), (-1, -1)))
        k = window_index(pres, (1, 1))
        # oracle: first k for which all three window conditions hold
        order, cone = R1_23.order, R1_23.cone
        def admissible(k):
            hi, lo = vscale(k, (1, 1)), vscale(-k, (1, 1))
            return all(
                cone.contains(vadd(b, hi))
                and order.leq(b, hi)
                and not order.leq(b, lo)
                for b in ((2, 0), (-1, -1))
            )
        assert k == 2
        assert admissible(2) and not admissible(1) and not admissible(0)

    def test_requires_interior_direction(self):
        pres = IdempotentPresentation.free(R1, ((0, 0),))
        with pytest.raises(ValueError):
            window_index(pres, (1, 0))


class TestGradedDimension:
    def test_whole_ring(self):
        pres = IdempotentPresentation.free(R1, ((0, 0),))
        assert graded_dimension(pres, (1, 1)) == 1

    def test_outside_support(self):
        pres = worked_presentation(R1)
        assert graded_dimension(pres, (-1, 0)) == 0

    def test_two_summands(self):
        pres = IdempotentPresentation.free(R1, ((0, 0), (1, 0)))
        assert graded_dimension(pres, (1, 0)) == 2

    def test_worked_presentation_dimensions(self):
        # image of [[1, X],[0,0]] is the graded-free module on one
        # generator in degree (0,0)
        pres = worked_presentation(R1)
        for a in [(0, 0), (1, 0), (0, 1), (2, 3)]:
            assert graded_dimension(pres, a) == 1

    def test_product_base_rejected(self):
        from gradedk0.scalars import QQ, ProductRing

        ring = preset_ring("R1", base=ProductRing([QQ, QQ]))
        pres = IdempotentPresentation.free(ring, ((0, 0),))
        with pytest.raises(ValueError):
            graded_dimension(pres, (0, 0))

    def test_additive_on_direct_sums(self):
        rng = random.Random(19)
        for _ in range(5):
            p = random_idempotent(R1, rng, max_summands=3, shift_bound=3)
            q = random_idempotent(R1, rng, max_summands=3, shift_bound=3)
            both = p.direct_sum(q)
            for a in [(0, 0), (1, 1), (2, 3), (4, 1)]:
                assert graded_dimension(both, a) == graded_dimension(
                    p, a
                ) + graded_dimension(q, a)


class TestSplittingDifference:
    def test_block_diagonal_trivial(self):
        pres = IdempotentPresentation.from_base_idempotent(
            R1, (0, 0), [[Fraction(1)]]
        )
        assert splitting_difference_check(pres, (0, 0))

    def test_worked_at_bottom(self):
        pres = worked_presentation(R1)
        assert splitting_difference_check(pres, (0, 0))

    def test_randomized(self):
        rng = random.Random(14)
        shift_pool = [(0, 0), (1, 0), (0, 1)]
        for _ in range(10):
            pres = random_idempotent(R1, rng, max_summands=3, shift_bound=2)
            for b in set(pres.shifts):
                assert splitting_difference_check(pres, b)
        assert shift_pool  # documented sample space

    def test_point_outside_window_rejected(self):
        # nonzero block at (2,2) but a window of index 1 tops out at (1,1)
        pres = IdempotentPresentation.free(R1, ((2, 2),))
        with pytest.raises(ValueError):
            splitting_difference_check(pres, (2, 2), k=1)


class TestShiftAndInverse:
    def test_shift_round_trip(self):
        pres = worked_presentation(R1)
        back = pres.shifted((2, 1)).shifted((-2, -1))
        assert back == pres

    def test_unipotent_inverse(self):
        x = R1.monomial((1, 0), Fraction(2))
        m = GradedMatrix(
            R1, SHIFTS, SHIFTS, [[R1.one(), x], [R1.zero(), R1.one()]]
        )
        inv = unipotent_inverse(m)
        assert m.compose(inv) == GradedMatrix.identity(R1, SHIFTS)

    def test_unipotent_inverse_rejects_degree_zero_off_diagonal(self):
        shifts = ((0, 0), (0, 0))
        m = GradedMatrix(
            R1, shifts, shifts, [[R1.one(), R1.one()], [R1.zero(), R1.one()]]
        )
        with pytest.raises(ValueError):
            unipotent_inverse(m)


# rings for the compose property: ProductRing is where nonzero * nonzero = 0
COMPOSE_RINGS = [
    preset_ring(name, base=base_ring_from_descriptor(desc))
    for name in ("R1", "R3")
    for desc in ("rational", "fp:7", "product:rational,fp:7")
]
_points = st.tuples(st.integers(-2, 3), st.integers(-2, 3))


def _random_graded_matrix(data, ring, target, source):
    """Masked random entries: a monomial of the forced degree where it is in the cone."""
    product = isinstance(ring.base, ProductRing)
    factors = ring.base.factors if product else (ring.base,)
    ints = st.lists(st.integers(-3, 3), min_size=len(factors), max_size=len(factors))
    rows = []
    for b in target:
        row = []
        for c in source:
            d = vsub(c, b)
            coeffs = [f.from_int(n) for f, n in zip(factors, data.draw(ints))]
            coeff = ProductElem(coeffs) if product else coeffs[0]
            row.append(ring.monomial(d, coeff) if ring.cone.contains(d) else ring.zero())
        rows.append(row)
    return GradedMatrix(ring, target, source, rows)


class TestComposeProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_compose_matches_triple_loop(self, data):
        ring = data.draw(st.sampled_from(COMPOSE_RINGS))
        # few distinct points, so shifts repeat
        pool = data.draw(st.lists(_points, min_size=1, max_size=3))
        shifts = st.lists(st.sampled_from(pool), min_size=0, max_size=4)
        target, middle, source = data.draw(shifts), data.draw(shifts), data.draw(shifts)
        a = _random_graded_matrix(data, ring, target, middle)
        b = _random_graded_matrix(data, ring, middle, source)
        want = []
        for i in range(len(target)):
            row = []
            for j in range(len(source)):
                acc = ring.zero()
                for k in range(len(middle)):
                    acc = acc + a.entries[i][k] * b.entries[k][j]
                row.append(acc)
            want.append(row)
        got = a.compose(b)
        assert got.target == a.target and got.source == b.source
        assert [list(row) for row in got.entries] == want


class TestScalarCore:
    """Arithmetic results are built unchecked from base scalars; each must equal
    its entries passed through the checking constructor."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_results_pass_the_checking_constructor(self, data):
        ring = data.draw(st.sampled_from(COMPOSE_RINGS))
        pool = data.draw(st.lists(_points, min_size=1, max_size=3))
        shifts = st.lists(st.sampled_from(pool), min_size=0, max_size=4)
        target, middle, source = data.draw(shifts), data.draw(shifts), data.draw(shifts)
        a = _random_graded_matrix(data, ring, target, middle)
        a2 = _random_graded_matrix(data, ring, target, middle)
        b = _random_graded_matrix(data, ring, middle, source)
        seed = data.draw(st.integers(0, 10**6))
        pres = random_idempotent(ring, random.Random(seed), max_summands=3, shift_bound=3)
        moved = pres.shifted(data.draw(_points))
        results = [
            a.compose(b),
            a.add(a2),
            a.sub(a2),
            a.neg(),
            moved.matrix,
            pres.direct_sum(moved).matrix,
        ]
        for m in results:
            rebuilt = GradedMatrix(ring, m.target, m.source, m.entries)
            assert rebuilt == m
            assert rebuilt.scalars == m.scalars
        assert a.sub(a2) == a.add(a2.neg())
        assert a.neg().neg() == a

    def test_entries_place_each_scalar_at_its_degree(self):
        e = worked_presentation(R1).matrix
        assert e.scalars == ((1, 1), (0, 0))
        assert e.entries == ((R1.one(), R1.monomial((1, 0))), (R1.zero(), R1.zero()))

    @pytest.mark.parametrize(
        "entry", [R1.monomial((0, 1)), R1.monomial((1, 0)) + R1.one()]
    )
    def test_constructor_still_checks_degrees(self, entry):
        with pytest.raises(ValueError, match=r"entry \(0,1\) must be homogeneous of degree \(1, 0\)"):
            GradedMatrix(R1, SHIFTS, SHIFTS, [[R1.one(), entry], [R1.zero(), R1.zero()]])


def _linear_window_index(pres, v):
    """Reference: the plain search upward from k = 0."""
    ring, base = pres.ring, pres.ring.base
    shifts = [
        b
        for b, block in pres.decomposition.blocks.items()
        if any(not base.is_zero(x) for row in block for x in row)
    ]

    def fits(k):
        high = vscale(k, v)
        return all(
            ring.cone.contains(vadd(b, high))
            and ring.order.leq(b, high)
            and not ring.order.leq(b, vscale(-k, v))
            for b in shifts
        )

    k = 0
    while not fits(k):
        k += 1
    return k


class TestWindowIndexSearch:
    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(["R1", "R2", "R3"]),
        seed=st.integers(0, 10**6),
        translation=st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
        scale=st.integers(1, 3),
    )
    def test_matches_linear_search(self, name, seed, translation, scale):
        ring = preset_ring(name)
        pres = random_idempotent(ring, random.Random(seed), max_summands=4, shift_bound=8)
        pres = pres.shifted(translation)
        v = vscale(scale, ring.cone.interior_vector())
        assert window_index(pres, v) == _linear_window_index(pres, v)


def _spread_presentation(ring, s):
    """e = P^-1 D P on shifts (0,0), (s,0), (2s,0); reduced blocks [[1]], [[0]], [[1]]."""
    shifts = ((0, 0), (s, 0), (2 * s, 0))
    coeffs = {(0, 1): 1, (0, 2): 3, (1, 2): -2}
    p = GradedMatrix(
        ring,
        shifts,
        shifts,
        [
            [
                ring.one() if i == j
                else ring.monomial(vsub(shifts[j], shifts[i]), coeffs[i, j]) if i < j
                else ring.zero()
                for j in range(3)
            ]
            for i in range(3)
        ],
    )
    one, zero = Fraction(1), Fraction(0)
    d = GradedMatrix.from_base_blocks(
        ring, shifts, {shifts[0]: [[one]], shifts[1]: [[zero]], shifts[2]: [[one]]}
    )
    e = unipotent_inverse(p).compose(d).compose(p)
    return IdempotentPresentation(ring, shifts, e)


class TestConjugationCost:
    @pytest.mark.parametrize("name", ["R1", "R3"])
    def test_compose_count_independent_of_spread(self, monkeypatch, name):
        ring = preset_ring(name)
        counts = {}
        for s in (5, 800):
            pres = _spread_presentation(ring, s)
            calls = []
            original = GradedMatrix.compose

            def counting(self, other):
                calls.append(None)
                return original(self, other)

            with monkeypatch.context() as m:
                m.setattr(GradedMatrix, "compose", counting)
                dec = pres.decomposition
            counts[s] = len(calls)
            # the reported bound is still the paper's a-priori one
            assert dec.nilpotency_bound == ring.order.value((2 * s, 0))
            one, zero = [[Fraction(1)]], [[Fraction(0)]]
            assert dec.blocks == {(0, 0): one, (s, 0): zero, (2 * s, 0): one}
        assert dec.nilpotency_bound == 1600
        assert counts[5] == counts[800]

    @pytest.mark.parametrize(
        "shifts, bound",
        [(((0, 0), (1, 0)), 0), (((0, 0), (1, 0), (2, 0)), 1)],
    )
    def test_nilpotency_check_fires_below_true_order(self, shifts, bound):
        # 1 + x on each step of the chain: the correction is nonzero up to power len-1
        x = R1.monomial((1, 0))
        r = len(shifts)
        m = GradedMatrix(
            R1,
            shifts,
            shifts,
            [
                [R1.one() if j == i else x if j == i + 1 else R1.zero() for j in range(r)]
                for i in range(r)
            ],
        )
        with pytest.raises(InternalCheckError, match="not nilpotent"):
            _geometric_inverse(m, bound)
        inv = _geometric_inverse(m, bound + 1)
        assert m.compose(inv) == GradedMatrix.identity(R1, shifts)
