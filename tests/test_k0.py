import json
import random
from fractions import Fraction
from itertools import product

import pytest

import gradedk0.k0 as k0_module
import gradedk0.modules as modules_module
from gradedk0.cones import enumerate_window
from gradedk0.errors import InternalCheckError
from gradedk0.jobspec import job_from_module, serialize_job
from gradedk0.k0 import (
    GradedRankClass,
    K0Class,
    graded_rank,
    hilbert_series_check,
    hilbert_table,
    k0_of_idempotent,
    phi_realize,
    verify_theorem_k0,
)
from gradedk0.linalg import invert
from gradedk0.modules import (
    GradedMatrix,
    IdempotentPresentation,
    filtration_window,
    unipotent_inverse,
    window_index,
)
from gradedk0.modules import conjugator, graded_dimension
from gradedk0.presets import preset_ring, random_idempotent
from gradedk0.scalars import QQ, ZZ, PrimeField, ProductRing

from conftest import run_cli

R1 = preset_ring("R1")
R2 = preset_ring("R2")
QQ2 = ProductRing([QQ, QQ])
R1_QQ2 = preset_ring("R1", base=QQ2)


def worked_presentation(ring):
    shifts = ((0, 0), (1, 0))
    x = ring.monomial((1, 0))
    m = GradedMatrix(
        ring, shifts, shifts, [[ring.one(), x], [ring.zero(), ring.zero()]]
    )
    return IdempotentPresentation(ring, shifts, m)


class TestK0OfIdempotent:
    def test_projection(self):
        assert k0_of_idempotent(
            [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]], QQ
        ) == K0Class((1,))

    def test_product_base(self):
        one_zero = QQ2.from_factor_values([Fraction(1), Fraction(0)])
        assert k0_of_idempotent([[one_zero]], QQ2) == K0Class((1, 0))

    def test_rank_by_elimination(self):
        h = Fraction(1, 2)
        assert k0_of_idempotent([[h, h], [h, h]], QQ) == K0Class((1,))

    def test_non_idempotent_rejected(self):
        with pytest.raises(ValueError):
            k0_of_idempotent([[Fraction(2)]], QQ)

    def test_empty(self):
        assert k0_of_idempotent([], QQ) == K0Class((0,))


class TestGradedRank:
    def test_shifted_free_line(self):
        pres = IdempotentPresentation.free(R1, ((1, 0),))
        assert graded_rank(pres) == GradedRankClass.single((1, 0), K0Class((1,)))

    def test_worked_presentation(self):
        assert graded_rank(worked_presentation(R1)) == GradedRankClass.single(
            (0, 0), K0Class((1,))
        )

    def test_additive_on_direct_sums(self):
        rng = random.Random(2)
        for _ in range(5):
            p = random_idempotent(R1, rng, max_summands=3, shift_bound=4)
            q = random_idempotent(R1, rng, max_summands=3, shift_bound=4)
            assert graded_rank(p.direct_sum(q)) == graded_rank(p) + graded_rank(q)

    def test_monomial_grid_and_negatives(self):
        for b in enumerate_window(R1.order, R1.cone, (0, 0), 10):
            pres = IdempotentPresentation.free(R1, (b,))
            assert graded_rank(pres) == GradedRankClass.single(b, K0Class((1,)))
            neg = pres.shifted(tuple(2 * x for x in b))
            assert graded_rank(neg) == GradedRankClass.single(
                tuple(-x for x in b), K0Class((1,))
            )

    def test_isomorphism_invariance(self):
        # conjugating by any graded invertible does not change the class
        rng = random.Random(13)
        for _ in range(6):
            pres = random_idempotent(R1, rng, max_summands=3, shift_bound=3)
            shifts = pres.shifts
            blocks = {}
            for b in set(shifts):
                idx = [i for i, s in enumerate(shifts) if s == b]
                g = len(idx)
                tri = [
                    [
                        Fraction(1)
                        if i == j
                        else Fraction(rng.randint(0, 2) if i < j else 0)
                        for j in range(g)
                    ]
                    for i in range(g)
                ]
                blocks[b] = tri
            t_mat = GradedMatrix.from_base_blocks(R1, shifts, blocks)
            t_inv = GradedMatrix.from_base_blocks(
                R1, shifts, {b: invert(m, QQ) for b, m in blocks.items()}
            )
            entries = [list(row) for row in GradedMatrix.identity(R1, shifts).entries]
            for i in range(len(shifts)):
                for j in range(len(shifts)):
                    d = tuple(x - y for x, y in zip(shifts[j], shifts[i]))
                    if any(d) and R1.cone.contains(d) and rng.random() < 0.5:
                        entries[i][j] = entries[i][j] + R1.monomial(d, Fraction(rng.randint(1, 2)))
            w_uni = GradedMatrix(R1, shifts, shifts, entries)
            w = t_mat.compose(w_uni)
            w_inv = unipotent_inverse(w_uni).compose(t_inv)
            conj = w.compose(pres.matrix).compose(w_inv)
            other = IdempotentPresentation(R1, shifts, conj)
            assert graded_rank(other) == graded_rank(pres)


class TestPhiRealize:
    def test_unit_class_at_origin(self):
        pres = phi_realize(K0Class((1,)), (0, 0), R1)
        assert graded_rank(pres) == GradedRankClass.single((0, 0), K0Class((1,)))

    def test_unit_class_shifted(self):
        pres = phi_realize(K0Class((1,)), (1, 0), R1)
        assert pres.shifts == ((1, 0),)
        assert graded_rank(pres) == GradedRankClass.single((1, 0), K0Class((1,)))

    def test_product_class(self):
        pres = phi_realize(K0Class((1, 0)), (0, 1), R1_QQ2)
        assert graded_rank(pres) == GradedRankClass.single((0, 1), K0Class((1, 0)))

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            phi_realize(K0Class((-1,)), (0, 0), R1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            phi_realize(K0Class((1, 1)), (0, 0), R1)

    def test_zero_class(self):
        pres = phi_realize(K0Class((0,)), (1, 1), R1)
        assert graded_rank(pres).is_zero()

    def test_xi_phi_identity_on_grids(self):
        shifts = [(-2, 1), (0, 0), (3, -1), (1, 2)]
        for ring, classes in (
            (R1, [K0Class((c,)) for c in range(4)]),
            (R1_QQ2, [K0Class(c) for c in product(range(3), repeat=2)]),
        ):
            for x in classes:
                for b in shifts:
                    got = graded_rank(phi_realize(x, b, ring))
                    want = GradedRankClass.single(b, x)
                    if x.is_zero():
                        want = GradedRankClass.zero()
                    assert got == want


class TestLAction:
    def test_shift_then_rank(self):
        b = (1, 1)
        pres = IdempotentPresentation.free(R1, (b,))
        shifted = pres.shifted((-1, 0))
        assert graded_rank(shifted) == GradedRankClass.single((2, 1), K0Class((1,)))

    def test_shift_round_trip(self):
        pres = worked_presentation(R1)
        assert pres.shifted((1, 2)).shifted((-1, -2)) == pres

    def test_l_action_inverse(self):
        c = GradedRankClass({(0, 0): K0Class((1,)), (2, 1): K0Class((2,))})
        assert c.l_action(0, 1).l_action(0, -1) == c

    def test_action_matches_translation(self):
        rng = random.Random(6)
        pres = random_idempotent(R1, rng)
        cls = graded_rank(pres)
        for axis in range(2):
            unit = tuple(1 if i == axis else 0 for i in range(2))
            assert graded_rank(pres.shifted(tuple(-u for u in unit))) == cls.l_action(axis, 1)
            assert graded_rank(pres.shifted(unit)) == cls.l_action(axis, -1)

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            GradedRankClass({(0, 0): K0Class((1,))}).l_action(0, 2)


class TestVerifyTheorem:
    def test_whole_ring(self):
        report = verify_theorem_k0(IdempotentPresentation.free(R1, ((0, 0),)))
        assert report["all_passed"]
        assert report["graded_rank"] == [{"exp": [0, 0], "class": [1]}]
        assert [c["name"] for c in report["checks"]] == [
            "lemma_reconstruction",
            "xi_phi_identity",
            "filtration_consistency",
            "l_linearity",
        ]

    def test_worked_presentation(self):
        report = verify_theorem_k0(worked_presentation(R1))
        assert report["all_passed"]
        assert report["graded_rank"] == [{"exp": [0, 0], "class": [1]}]

    def test_randomized_r2(self):
        rng = random.Random(21)
        for _ in range(5):
            pres = random_idempotent(R2, rng, max_summands=4, shift_bound=3)
            assert verify_theorem_k0(pres)["all_passed"]

    def test_product_base(self):
        rng = random.Random(22)
        pres = random_idempotent(R1_QQ2, rng, max_summands=3, shift_bound=3)
        assert verify_theorem_k0(pres)["all_passed"]

    def test_larger_window_than_needed(self):
        pres = worked_presentation(R1)
        assert verify_theorem_k0(pres, window_k=3)["all_passed"]


def _free_spread_10(ring):
    return IdempotentPresentation.free(ring, ((0, 0), (10, 0)))


def _zero_block_between(ring):
    """e = [[1, X^2, 0], [0, 0, 0], [0, 0, 1]]: the block at (2,0) is zero."""
    shifts = ((0, 0), (2, 0), (4, 0))
    one, zero, x2 = ring.one(), ring.zero(), ring.monomial((2, 0))
    m = GradedMatrix(
        ring, shifts, shifts, [[one, x2, zero], [zero, zero, zero], [zero, zero, one]]
    )
    return IdempotentPresentation(ring, shifts, m)


class TestStageReuse:
    """Conjugations in the filtration sweep follow the distinct stages,
    not the number of window points."""

    @pytest.fixture
    def conjugations(self, monkeypatch):
        calls = []
        original = modules_module._conjugate

        def counting(pres, mirror):
            calls.append(pres.shifts)
            return original(pres, mirror)

        monkeypatch.setattr(modules_module, "_conjugate", counting)
        return calls

    @pytest.mark.parametrize("build", [_free_spread_10, _zero_block_between])
    def test_verify_independent_of_window(self, conjugations, build):
        v = R1.cone.interior_vector()
        k_min = window_index(build(R1), v)
        assert len(filtration_window(R1, v, k_min + 2)) > len(
            filtration_window(R1, v, k_min)
        )
        counts = []
        for k in (k_min, k_min + 2):
            conjugations.clear()
            assert verify_theorem_k0(build(R1), window_k=k)["all_passed"]
            counts.append(len(conjugations))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("build", [_free_spread_10, _zero_block_between])
    def test_filtration_command_independent_of_window(
        self, conjugations, build, tmp_path
    ):
        pres = build(R1)
        job = tmp_path / "job.json"
        job.write_text(
            json.dumps(
                {
                    "scalars": "rational",
                    "base": "rational",
                    "cone": {"generators": [["1", "0"], ["0", "1"]]},
                    "module": {
                        "shifts": [list(b) for b in pres.shifts],
                        "idempotent": pres.matrix.to_serializable()["entries"],
                    },
                }
            ),
            encoding="utf-8",
        )
        k_min = window_index(pres, R1.cone.interior_vector())
        counts = []
        for k in (k_min, k_min + 2):
            conjugations.clear()
            code, _, _ = run_cli(["filtration", "--job", str(job), "--window-k", str(k)])
            assert code == 0
            counts.append(len(conjugations))
        assert counts[0] == counts[1]


    def test_failure_names_first_failing_point(self, monkeypatch):
        def blind_at_4(pres):
            terms = graded_rank(pres).terms
            return GradedRankClass({b: c for b, c in terms.items() if b != (4, 0)})

        monkeypatch.setattr(k0_module, "graded_rank", blind_at_4)
        report = verify_theorem_k0(_zero_block_between(R1))
        (check,) = [c for c in report["checks"] if c["name"] == "filtration_consistency"]
        assert not check["passed"]
        assert check["detail"]["stage"] == [4, 0]
        assert check["detail"]["reason"] == "quotient class differs from block class"


class TestHilbert:
    def test_whole_ring_counts_monomials(self):
        pres = IdempotentPresentation.free(R1, ((0, 0),))
        rows = hilbert_table(pres, 6)
        # every lattice point of the orthant carries exactly one monomial
        for a, dim, conv in rows:
            assert dim == 1 == conv
        assert {a for a, _, _ in rows} == set(
            enumerate_window(R1.order, R1.cone, (0, 0), 6)
        )
        assert hilbert_series_check(pres, 6)

    def test_two_summands_degree(self):
        pres = IdempotentPresentation.free(R1, ((0, 0), (1, 0)))
        rows = {a: dim for a, dim, _ in hilbert_table(pres, 4)}
        assert rows[(1, 0)] == 2
        assert hilbert_series_check(pres, 4)

    def test_zero_module(self):
        assert hilbert_series_check(IdempotentPresentation.zero(R1), 10)

    def test_dimension_fault_fails_check(self, monkeypatch):
        real = k0_module.graded_dimension
        monkeypatch.setattr(k0_module, "graded_dimension", lambda pres, a: real(pres, a) + 1)
        assert not hilbert_series_check(IdempotentPresentation.free(R1, ((0, 0),)), 6)
        code, out, _ = run_cli(["hilbert", "--example", "R1"])
        assert code == 4
        assert "convolution check: FAIL" in out

    def test_random_samples(self):
        rng = random.Random(31)
        for ring in (R1, R2):
            for _ in range(4):
                pres = random_idempotent(ring, rng, max_summands=3, shift_bound=3)
                assert hilbert_series_check(pres, 10)

    def test_product_base_rejected(self):
        pres = IdempotentPresentation.free(R1_QQ2, ((0, 0),))
        with pytest.raises(ValueError):
            hilbert_table(pres, 3)


class TestPrimeFieldEndToEnd:
    def test_verify_over_f7(self):
        ring = preset_ring("R2", base=PrimeField(7))
        rng = random.Random(41)
        for _ in range(3):
            pres = random_idempotent(ring, rng, max_summands=3, shift_bound=3)
            assert verify_theorem_k0(pres)["all_passed"]


class TestIntegerBase:
    def test_conjugation_works_without_division(self):
        ring = preset_ring("R1", base=ZZ)
        rng = random.Random(8)
        pres = random_idempotent(ring, rng, max_summands=3, shift_bound=3)
        dec = conjugator(pres)
        reduced = GradedMatrix.from_base_blocks(ring, pres.shifts, dec.blocks)
        assert dec.u.compose(pres.matrix).compose(dec.u_inv) == reduced

    def test_class_operations_rejected(self):
        ring = preset_ring("R1", base=ZZ)
        pres = IdempotentPresentation.free(ring, ((0, 0),))
        with pytest.raises(ValueError):
            graded_rank(pres)
        with pytest.raises(ValueError):
            k0_of_idempotent([[1]], ZZ)
        with pytest.raises(ValueError):
            phi_realize(K0Class((1,)), (0, 0), ring)
        with pytest.raises(ValueError):
            graded_dimension(pres, (0, 0))
        with pytest.raises(ValueError):
            hilbert_table(pres, 3)

    def test_integer_base_not_allowed_in_products(self):
        with pytest.raises(ValueError):
            ProductRing([QQ, ZZ])


class TestCheckFaults:
    """Each entry of the verification table fails, and is reported through the
    CLI, when the construction it checks is broken."""

    @pytest.fixture
    def job(self, tmp_path):
        pres = IdempotentPresentation.free(R1, ((0, 0), (1, 0)))
        path = tmp_path / "job.json"
        path.write_text(serialize_job(job_from_module(R1, pres, "rational", "rational")))
        return str(path)

    @staticmethod
    def failed(job, name):
        """Detail of the named check, after asserting it failed with exit 4."""
        code, out, _ = run_cli(["verify", "--job", job])
        assert code == 4
        assert f"  failed check: {name}" in out.splitlines()
        code, out, _ = run_cli(["verify", "--job", job, "--format", "machine"])
        assert code == 4
        (check,) = [c for c in json.loads(out)["samples"][0]["checks"] if c["name"] == name]
        assert not check["passed"]
        return check["detail"]

    def test_wrong_realization(self, job, monkeypatch):
        monkeypatch.setattr(k0_module, "phi_realize", lambda x, b, ring: IdempotentPresentation.zero(ring))
        assert self.failed(job, "xi_phi_identity")["mismatches"]

    def test_untranslated_shift(self, job, monkeypatch):
        monkeypatch.setattr(IdempotentPresentation, "shifted", lambda self, translation: self)
        assert self.failed(job, "l_linearity")["mismatches"] == [
            {"axis": axis, "direction": d} for axis in (0, 1) for d in (1, -1)
        ]

    def test_bottom_stage_is_whole_module(self, job, monkeypatch):
        monkeypatch.setattr(modules_module, "filtration_idempotent", lambda pres, a, dec=None: pres)
        detail = self.failed(job, "filtration_consistency")
        assert detail["reason"] == "bottom filtration stage is nonzero"

    def test_stages_do_not_nest(self, job, monkeypatch):
        real = modules_module.filtration_idempotent
        below = {}

        def top_without_stage_below(pres, a, dec=None):
            stage = real(pres, a, dec)
            previous = below.get(id(pres))
            if previous is not None and stage.matrix == pres.matrix:
                # the complement of the stage below: the two do not nest
                return IdempotentPresentation(
                    pres.ring, pres.shifts, pres.matrix.sub(previous.matrix)
                )
            below[id(pres)] = stage
            return stage

        monkeypatch.setattr(modules_module, "filtration_idempotent", top_without_stage_below)
        detail = self.failed(job, "filtration_consistency")
        assert detail["reason"] == "filtration stages do not nest"
        assert detail["stage"] == [1, 0]

    def test_failed_conjugation_skips_the_rest(self, job, monkeypatch):
        def fail(pres, mirror):
            raise InternalCheckError("conjugation identity failed")

        monkeypatch.setattr(modules_module, "_conjugate", fail)
        detail = self.failed(job, "lemma_reconstruction")
        assert detail["error"] == "conjugation identity failed"
        for name in ("xi_phi_identity", "filtration_consistency", "l_linearity"):
            assert self.failed(job, name) == {"skipped": "no decomposition"}
