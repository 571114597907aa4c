#!/usr/bin/env python3
"""Graded ranks, class realization, and the end-to-end verification.

The graded rank sends a presentation to the sum of its reduced block
classes weighted by Laurent monomials.  Realizing a class at a chosen
exponent is a one-shift diagonal idempotent; the two maps are mutually
inverse at the level of classes, and translation acts by monomials.
"""

import json
import random

from gradedk0 import (
    IdempotentPresentation,
    K0Class,
    ProductRing,
    QQ,
    graded_rank,
    hilbert_table,
    phi_realize,
    preset_ring,
    random_idempotent,
    verify_theorem_k0,
)

ring = preset_ring("R1")

print("== graded ranks of shifted free lines ==")
for b in [(0, 0), (1, 0), (2, 1)]:
    print(f"R(-{b}) has class", graded_rank(IdempotentPresentation.free(ring, (b,))))

print("\n== realizing classes and reading them back ==")
cls = K0Class((3,))
pres = phi_realize(cls, (1, 2), ring)
print("realize 3 at (1,2):", graded_rank(pres))

pair_ring = preset_ring("R1", base=ProductRing([QQ, QQ]))
pres = phi_realize(K0Class((2, 1)), (0, 1), pair_ring)
print("realize (2,1) over Q x Q at (0,1):", graded_rank(pres))

print("\n== translation acts by Laurent monomials ==")
pres = IdempotentPresentation.free(ring, ((1, 1),))
cls = graded_rank(pres)
print("class:", cls)
print("translate by -e1:", graded_rank(pres.shifted((-1, 0))))
print("same as multiplying by t1:", cls.l_action(0, 1))

print("\n== a random presentation, fully verified ==")
rng = random.Random(5)
pres = random_idempotent(preset_ring("R2"), rng, max_summands=4, shift_bound=4)
report = verify_theorem_k0(pres)
print("shifts:", list(pres.shifts))
print(json.dumps(report["checks"], indent=2))
print("graded rank:", graded_rank(pres))

print("\n== dimensions match the block convolution ==")
for a, dim, conv in hilbert_table(pres, 6)[:10]:
    marker = "==" if dim == conv else "!="
    print(f"degree {a}: dim {dim} {marker} {conv}")
