import random
from fractions import Fraction

import pytest

from gradedk0 import linalg
from gradedk0.scalars import QQ, PrimeField, QuadraticField

F7 = PrimeField(7)
FIELDS = pytest.mark.parametrize(
    "field", [QQ, F7, QuadraticField(2)], ids=["QQ", "F7", "Qsqrt2"]
)


def scalar(field, rng, lo, hi):
    """Random field element; over Q(sqrt d) with an irrational part too."""
    x = field.from_int(rng.randint(lo, hi))
    if isinstance(field, QuadraticField):
        x = x + field.from_int(rng.randint(lo, hi)) * field.sqrt_gen()
    return x


def mat_vec(m, v, field):
    return [sum((row[j] * v[j] for j in range(len(v))), field.zero()) for row in m]


def random_invertible(field, n, rng):
    """Product of a unit lower and unit upper triangular matrix: invertible."""
    lo = linalg.mat_identity(n, field)
    up = linalg.mat_identity(n, field)
    for i in range(n):
        for j in range(n):
            if i > j:
                lo[i][j] = scalar(field, rng, -3, 3)
            elif i < j:
                up[i][j] = scalar(field, rng, -3, 3)
    return linalg.mat_mul(lo, up, field)


def test_rank_examples():
    assert linalg.rank([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]], QQ) == 1
    assert linalg.rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], QQ) == 1
    assert linalg.rank([[Fraction(1), Fraction(0)], [Fraction(1), Fraction(2)]], QQ) == 2
    assert linalg.rank([], QQ) == 0


def test_rank_of_idempotent_equals_trace_over_q():
    # over Q the trace of an idempotent equals its rank: independent oracle
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        diag_bits = [rng.randint(0, 1) for _ in range(n)]
        d = [
            [Fraction(diag_bits[i] if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        t = random_invertible(QQ, n, rng)
        t_inv = linalg.invert(t, QQ)
        e = linalg.mat_mul(t_inv, linalg.mat_mul(d, t, QQ), QQ)
        assert linalg.is_idempotent(e, QQ)
        trace = sum((e[i][i] for i in range(n)), Fraction(0))
        assert trace == sum(diag_bits)
        assert linalg.rank(e, QQ) == sum(diag_bits)


def test_rank_mod_p():
    # 2x2 matrix with determinant divisible by 7 drops rank mod 7
    m = [[F7.from_int(1), F7.from_int(3)], [F7.from_int(5), F7.from_int(1)]]
    # det = 1 - 15 = -14 = 0 mod 7
    assert linalg.rank(m, F7) == 1


@FIELDS
def test_nullspace_and_solve(field):
    rng = random.Random(5)
    zero = field.zero()
    for _ in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[scalar(field, rng, -3, 3) for _ in range(cols)] for _ in range(rows)]
        basis = linalg.nullspace(m, field, cols)
        assert linalg.rank(m, field) + len(basis) == cols
        for v in basis:
            assert mat_vec(m, v, field) == [zero] * rows
        x = [scalar(field, rng, -2, 2) for _ in range(cols)]
        b = mat_vec(m, x, field)
        sol = linalg.solve(m, b, field)
        assert sol is not None
        assert mat_vec(m, sol, field) == b
    assert linalg.nullspace([], field, 3) == linalg.mat_identity(3, field)


@FIELDS
def test_solve_inconsistent(field):
    one = field.one()
    m = [[one, one], [one, one]]
    assert linalg.solve(m, [field.zero(), one], field) is None


@FIELDS
def test_invert(field):
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = random_invertible(field, n, rng)
        inv = linalg.invert(m, field)
        assert linalg.mat_mul(m, inv, field) == linalg.mat_identity(n, field)
    assert linalg.invert([], field) == []
    singular = [[field.from_int(1), field.from_int(2)], [field.from_int(2), field.from_int(4)]]
    with pytest.raises(ValueError, match="matrix is singular"):
        linalg.invert(singular, field)
