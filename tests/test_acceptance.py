"""Acceptance suite: one test per criterion, each printing a PASS line.

Every assertion is exact (integer / rational / quadratic-integer equality);
there are no tolerances anywhere.  Runtime budgets are asserted per
criterion.  Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import json
import random
import time
from itertools import product
from pathlib import Path

import gradedk0.cli as cli_module
from gradedk0.cones import enumerate_window, idot, vsub
from gradedk0.k0 import (
    GradedRankClass,
    K0Class,
    graded_rank,
    hilbert_series_check,
    k0_of_idempotent,
    phi_realize,
    verify_theorem_k0,
)
from gradedk0.modules import (
    GradedMatrix,
    IdempotentPresentation,
    conjugator,
    filtration_idempotent,
    filtration_window,
    splitting_difference_check,
    window_index,
)
from gradedk0.presets import default_sample_modules, preset_ring, random_idempotent
from gradedk0.scalars import QQ, PrimeField, ProductRing

from conftest import run_cli


def _report(num: int, label: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"PASS criterion {num}: {label} ({elapsed:.2f}s < {budget:.0f}s)")


def test_criterion_1_conjugation_suite():
    started = time.monotonic()
    total = 0
    for preset in ("R1", "R2"):
        for base in (QQ, PrimeField(7)):
            ring = preset_ring(preset, base=base)
            rng = random.Random(1000)
            for _ in range(50):
                pres = random_idempotent(ring, rng, max_summands=4, shift_bound=6)
                dec = conjugator(pres)
                reduced = GradedMatrix.from_base_blocks(ring, pres.shifts, dec.blocks)
                ident = GradedMatrix.identity(ring, pres.shifts)
                assert dec.u.compose(pres.matrix).compose(dec.u_inv) == reduced
                assert dec.u.compose(dec.u_inv) == ident
                correction = dec.u.sub(ident)
                power = ident
                for _ in range(dec.nilpotency_bound + 1):
                    power = power.compose(correction)
                assert power.is_zero()
                total += 1
    assert total == 200
    _report(1, f"conjugation suite, {total} random idempotents, exact", started, 60)


def test_criterion_2_xi_phi_identity():
    started = time.monotonic()
    checked = 0
    shift_grid = [
        b
        for b in product(range(-6, 7), repeat=2)
        if abs(b[0] + b[1]) <= 6  # |gamma0 . b| with the R1 witness (1,1)
    ]
    for base, classes in (
        (QQ, [K0Class((c,)) for c in range(4)]),
        (ProductRing([QQ, QQ]), [K0Class(c) for c in product(range(4), repeat=2)]),
    ):
        ring = preset_ring("R1", base=base)
        assert ring.order.gamma0 == (1, 1)
        for x in classes:
            for b in shift_grid:
                got = graded_rank(phi_realize(x, b, ring))
                want = (
                    GradedRankClass.zero()
                    if x.is_zero()
                    else GradedRankClass.single(b, x)
                )
                assert got == want
                checked += 1
    _report(2, f"class realization round trip, {checked} pairs, exact", started, 10)


def test_criterion_3_verify_default_samples():
    started = time.monotonic()
    total = 0
    for preset in ("R1", "R2", "R3"):
        ring = preset_ring(preset)
        for name, pres in default_sample_modules(ring, seed=17):
            report = verify_theorem_k0(pres)
            assert report["all_passed"], (preset, name, report)
            total += 1
    _report(3, f"object-level theorem checks on {total} preset samples", started, 60)


def _canonicity_sample():
    ring = preset_ring("R1")
    rng = random.Random(2500)
    return ring, [random_idempotent(ring, rng, max_summands=4, shift_bound=3) for _ in range(25)]


def test_criterion_4_canonicity_of_quotient_splitting():
    started = time.monotonic()
    _, sample = _canonicity_sample()
    checked = 0
    for pres in sample:
        for b in sorted(set(pres.shifts)):
            assert splitting_difference_check(pres, b)
            checked += 1
    _report(4, f"splitting-difference canonicity, 25 idempotents, {checked} degrees", started, 30)


def test_criterion_5_filtration_properties():
    started = time.monotonic()
    ring, sample = _canonicity_sample()
    base = ring.base
    for pres in sample:
        v = ring.cone.interior_vector()
        k = window_index(pres, v)
        window = filtration_window(ring, v, k)
        dec = pres.decomposition
        mirror = pres.mirror_decomposition
        mats = []
        for a in window:
            p = filtration_idempotent(pres, a, dec).matrix
            q = filtration_idempotent(pres, a, mirror).matrix
            # same image under either conjugating pair
            assert p.compose(q) == q and q.compose(p) == p
            mats.append(p)
        for lo, hi in zip(mats, mats[1:]):
            assert lo.compose(hi) == lo and hi.compose(lo) == lo
        # quotient class at each window point equals the block class there
        for j in range(1, len(window)):
            quot = IdempotentPresentation(
                ring, pres.shifts, mats[j].sub(mats[j - 1])
            )
            block = dec.blocks.get(window[j])
            want = (
                GradedRankClass.single(window[j], k0_of_idempotent(block, base))
                if block is not None
                else GradedRankClass.zero()
            )
            assert graded_rank(quot) == want
    # direct-sum compatibility across consecutive sample pairs
    for left, right in zip(sample, sample[1:]):
        both = left.direct_sum(right)
        lb, rb = left.decomposition.blocks, right.decomposition.blocks
        bb = both.decomposition.blocks
        for b in set(lb) | set(rb):
            assert len(bb[b]) == len(lb.get(b, [])) + len(rb.get(b, []))
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
    _report(5, "filtration nesting, independence, sums, quotient ranks", started, 30)


def _member_orthant(d):
    return d[0] >= 0 and d[1] >= 0


def _member_cone12(d):
    return d[1] >= 0 and 2 * d[0] - d[1] >= 0


def _member_sqrt2(d):
    return d[1] >= 0 and d[0] >= 0 and d[1] * d[1] <= 2 * d[0] * d[0]


def test_criterion_6_window_enumeration_oracle():
    started = time.monotonic()
    cases = [
        ("R1", _member_orthant),
        ("R2", _member_cone12),
        ("R3", _member_sqrt2),
    ]
    rng = random.Random(6000)
    for preset, member in cases:
        ring = preset_ring(preset)
        order = ring.order
        for _ in range(20):
            base_pt = (rng.randint(-4, 4), rng.randint(-4, 4))
            bound = rng.randint(-2, 12)
            got = enumerate_window(order, ring.cone, base_pt, bound)
            radius = 4 * (abs(bound) + sum(abs(b) for b in base_pt) + 2)
            box = product(*[range(b - radius, b + radius + 1) for b in base_pt])
            want = {
                x
                for x in box
                if idot(order.gamma0, x) <= bound and member(vsub(x, base_pt))
            }
            assert set(got) == want
            for p in got:
                assert all(abs(x - b) <= radius for x, b in zip(p, base_pt))
            for a, b in zip(got, got[1:]):
                assert order.compare(a, b) < 0
    _report(6, "window enumeration vs box oracle, 60 triples", started, 30)


def test_criterion_7_hilbert_convolution():
    started = time.monotonic()
    total = 0
    for preset in ("R1", "R2", "R3"):
        ring = preset_ring(preset)
        for name, pres in default_sample_modules(ring, seed=17):
            assert hilbert_series_check(pres, 10), (preset, name)
            total += 1
    _report(7, f"dimension convolution at bound 10 on {total} samples", started, 30)


def test_criterion_8_paper_example_identities():
    started = time.monotonic()
    # the defining relation of the second preset vanishes identically
    code, out, _ = run_cli(["ring", "eval", "--example", "R2", "--expr", "U*W - V^2"])
    assert code == 0 and out.strip() == "0"
    # first six window points of the quadratic cone, against integer arithmetic
    code, out, _ = run_cli(["enumerate", "--example", "R3", "--bound", "2"])
    assert code == 0
    got = out.splitlines()
    oracle = []
    for x in range(0, 3):
        for y in range(0, 3):
            if y * y <= 2 * x * x:
                oracle.append((x, y))
    oracle.sort(key=lambda p: (p[0], p))
    assert got[:6] == ["(" + ",".join(str(c) for c in p) + ")" for p in oracle[:6]]
    assert len(got) == 6
    # graded rank of shifted free lines prints exactly the Laurent monomial
    for shift, expected in [
        ("0,0", "t^(0,0)"),
        ("1,0", "t^(1,0)"),
        ("1,1", "t^(1,1)"),
        ("1,2", "t^(1,2)"),
    ]:
        code, out, _ = run_cli(["k0", "--example", "R2", "--shift", shift])
        assert code == 0 and out.strip() == expected
    _report(8, "built-in example identities through the CLI", started, 30)


def test_criterion_9_cli_goldens_and_exit_codes(tmp_path, monkeypatch):
    started = time.monotonic()
    golden_dir = Path(__file__).parent / "golden"
    for preset in ("R1", "R2", "R3"):
        code, out, _ = run_cli(
            ["verify", "--example", preset, "--seed", "17", "--format", "machine"]
        )
        assert code == 0
        assert out == (golden_dir / f"verify_{preset}.json").read_text(encoding="utf-8")
        code, out, _ = run_cli(["enumerate", "--example", preset, "--bound", "4"])
        assert code == 0
        assert out == (golden_dir / f"enumerate_{preset}.txt").read_text(encoding="utf-8")
        code, out, _ = run_cli(["cone", "check", "--example", preset])
        assert code == 0
        assert out == (golden_dir / f"cone_check_{preset}.txt").read_text(encoding="utf-8")

    # exit-code matrix via forced failures
    seen = {}
    code, _, _ = run_cli(["k0", "--example", "R1", "--shift", "0,0"])
    seen[0] = code
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    seen[2], _, _ = run_cli(["cone", "check", "--job", str(bad)])
    nonidem = tmp_path / "nonidem.json"
    nonidem.write_text(
        json.dumps(
            {
                "scalars": "rational",
                "base": "rational",
                "cone": {"generators": [["1", "0"], ["0", "1"]]},
                "module": {
                    "shifts": [[0, 0]],
                    "idempotent": [[[{"exp": [0, 0], "coef": "2"}]]],
                },
            }
        ),
        encoding="utf-8",
    )
    seen[3], _, _ = run_cli(["k0", "--job", str(nonidem)])
    line = tmp_path / "line.json"
    line.write_text(
        json.dumps(
            {
                "scalars": "rational",
                "base": "rational",
                "cone": {"generators": [["1", "0"], ["-1", "0"]]},
            }
        ),
        encoding="utf-8",
    )
    seen[4], _, _ = run_cli(["cone", "check", "--job", str(line)])

    def boom(*args, **kwargs):
        raise RuntimeError("deliberate fault")

    monkeypatch.setattr(cli_module, "enumerate_window", boom)
    seen[5], _, _ = run_cli(["enumerate", "--example", "R1", "--bound", "2"])
    monkeypatch.undo()
    assert seen == {0: 0, 2: 2, 3: 3, 4: 4, 5: 5}
    _report(9, "byte-exact goldens and full exit-code matrix", started, 30)


def test_criterion_10_verify_cost_follows_distinct_shifts():
    # R + R(-(40,0)) has two distinct shifts but thousands of window points
    for preset in ("R1", "R3"):
        started = time.monotonic()
        ring = preset_ring(preset)
        report = verify_theorem_k0(IdempotentPresentation.free(ring, ((0, 0), (40, 0))))
        assert report["all_passed"], (preset, report)
        _report(10, f"verify on {preset} at shift spread 40", started, 3)
