"""Check one op's machine output against the generator's answers.

Nothing here is compared with an earlier gradedk0 output: every expected
value comes from gen.py, and for `decompose` the conjugating pair is checked
with the benchmark's own masked matrix arithmetic (u * e * u_inv == ebar and
u * u_inv == 1).  `check` returns a list of problems; empty means correct.
"""

from __future__ import annotations

import json

import arith
from geometry import vsub

_VERIFY_CHECKS = ("lemma_reconstruction", "xi_phi_identity", "filtration_consistency", "l_linearity")


def _failed_passes(doc) -> int:
    """Number of `"passed": false` entries anywhere in the document."""
    if isinstance(doc, dict):
        own = 1 if doc.get("passed") is False else 0
        return own + sum(_failed_passes(v) for v in doc.values())
    if isinstance(doc, list):
        return sum(_failed_passes(v) for v in doc)
    return 0


def _parse_matrix(base, rows):
    return [[base.parse(x) for x in row] for row in rows]


def _masked_matrix(cone, base, doc, shifts, problems, label):
    """Scalar matrix from a serialized graded matrix; checks shifts and degrees."""
    if doc.get("target") != shifts or doc.get("source") != shifts:
        problems.append(f"{label}: shift lists differ from the module")
        return None
    out = []
    for i, row in enumerate(doc["entries"]):
        out_row = []
        for j, terms in enumerate(row):
            if not terms:
                out_row.append(base.zero())
                continue
            want = list(vsub(shifts[j], shifts[i]))
            if len(terms) != 1 or terms[0]["exp"] != want or not cone.contains(want):
                problems.append(f"{label}[{i}][{j}]: not a single term of degree {want}")
                return None
            out_row.append(base.parse(terms[0]["coef"]))
        out.append(out_row)
    return out


def _check_decompose(op, doc, problems):
    cone, base, mod = op.cone, op.base, op.expect["module"]
    listed = {tuple(item["shift"]): item["block"] for item in doc["blocks"]}
    if set(listed) != set(mod.blocks):
        problems.append("blocks: shift set differs")
        return
    for b, block in mod.blocks.items():
        if not arith.mat_eq(base, _parse_matrix(base, listed[b]), block):
            problems.append(f"blocks: block at {list(b)} differs")
    if doc["nilpotency_bound"] != op.expect["nilpotency_bound"]:
        problems.append("nilpotency_bound differs")
    shifts = [list(b) for b in mod.shifts]
    u = _masked_matrix(cone, base, doc["u"], shifts, problems, "u")
    u_inv = _masked_matrix(cone, base, doc["u_inv"], shifts, problems, "u_inv")
    if u is None or u_inv is None:
        return
    conj = arith.mat_mul(base, arith.mat_mul(base, u, mod.e), u_inv)
    if not arith.mat_eq(base, conj, mod.ebar):
        problems.append("u * e * u_inv != ebar")
    if not arith.mat_eq(base, arith.mat_mul(base, u, u_inv), arith.identity(base, len(shifts))):
        problems.append("u * u_inv != 1")


def _check_cone(op, doc, problems):
    cone = op.cone
    field = arith.base_from_descriptor(cone.scalars)
    if doc["ambient_dimension"] != cone.n or doc["full_dimensional"] is not True:
        problems.append("dimension report differs")
    if doc["pointed"] is not True:
        problems.append("cone reported as not pointed")
        return
    gamma0 = doc["gamma0"]
    gens = [[field.parse(x) for x in g] for g in cone.generators]
    if any(_sign(field, _dot(field, [field.from_int(c) for c in gamma0], g)) <= 0 for g in gens):
        problems.append("gamma0 is not strictly positive on the generators")
    facets = [[field.parse(x) for x in f.strip("()").split(",")] for f in doc["facets"]]
    matched = [
        sum(1 for want in cone.facets if _same_ray(field, got, want)) == 1 for got in facets
    ]
    if len(facets) != len(cone.facets) or not all(matched):
        problems.append("facets differ")


def _dot(field, a, b):
    acc = field.zero()
    for x, y in zip(a, b):
        acc = field.add(acc, field.mul(x, y))
    return acc


def _sign(field, x) -> int:
    if isinstance(field, arith.Quadratic):
        return field.sign(x)
    return (x > 0) - (x < 0)


def _same_ray(field, a, b) -> bool:
    """a is a positive multiple of b: all 2x2 minors vanish and a . b > 0."""
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            minor = field.add(field.mul(a[i], b[j]), field.neg(field.mul(a[j], b[i])))
            if not field.is_zero(minor):
                return False
    return _sign(field, _dot(field, a, b)) > 0


def _check_ring_eval(op, doc, problems):
    base = op.base
    got = doc["result"]
    want = op.expect["result"]
    if doc["expr"] != op.expect["expr"] or [t["exp"] for t in got] != [e for e, _ in want]:
        problems.append("result: exponents differ")
        return
    for term, (_, coef) in zip(got, want):
        if not base.is_zero(base.add(base.parse(term["coef"]), base.neg(coef))):
            problems.append(f"result: coefficient at {term['exp']} differs")
            return


_SAME_KEYS = {
    "decompose": ("shifts",),
    "enumerate": ("bound", "base", "gamma0", "points"),
    "k0": ("shifts", "class"),
    "filtration": ("interior_vector", "window_k", "quotients"),
    "hilbert": ("bound", "rows"),
    "verify": ("seed", "gamma0", "base"),
}


def _check_verify(op, doc, problems):
    if doc["all_passed"] is not True or len(doc["samples"]) != 1:
        problems.append("verify: report not passed")
        return
    sample = doc["samples"][0]
    names = {c["name"] for c in sample["checks"]}
    if not set(_VERIFY_CHECKS) <= names:
        problems.append("verify: a required check is missing")
    if sample["graded_rank"] != op.expect["graded_rank"] or sample["shifts"] != op.expect["shifts"]:
        problems.append("verify: graded rank differs")


def check(op, code: int, stdout: str) -> list:
    """Problems with one op's exit code and machine output (empty when correct)."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    problems = []
    if doc.get("command") != "-".join(op.command) or doc.get("input") != "job":
        problems.append("command or input label differs")
    failed = _failed_passes(doc)
    if failed:
        problems.append(f"{failed} entries report passed=false")
    command = op.name
    try:
        for key in _SAME_KEYS.get(command, ()):
            if doc[key] != op.expect[key]:
                problems.append(f"{key} differs")
        if command == "decompose":
            _check_decompose(op, doc, problems)
        elif command == "cone check":
            _check_cone(op, doc, problems)
        elif command == "ring eval":
            _check_ring_eval(op, doc, problems)
        elif command == "verify":
            _check_verify(op, doc, problems)
        elif command == "hilbert" and doc["passed"] is not True:
            problems.append("hilbert: convolution check failed")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems
