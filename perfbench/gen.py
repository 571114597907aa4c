"""Seeded job generator for the three workloads, with answers known by construction.

Every module is built as e = P^-1 * D * P over a shift list b_1..b_r:

* D is block diagonal over equal shifts; the block at b is T^-1 * diag(0/1) * T
  with T unit upper triangular over the base, so it is idempotent and its
  class (rank per simple factor of the base) is the number of ones.
* P = 1 + N where N[i][j] may be nonzero only when b_j - b_i is a nonzero
  point of the cone, so P is unipotent and reduces to 1 modulo positive
  degrees.

Reducing e modulo positive degrees therefore gives back exactly the blocks of
D, and every answer the program reports (blocks, graded rank, filtration
quotients, Hilbert dimensions) follows from D and the shifts alone.  Enumerated
point sets come from the integer cone tests in geometry.py and ring-eval
results from expanding the generated expression here.  Nothing is imported
from gradedk0.

Each workload is a fixed cycle of strata (command, cone, base, size); op i
belongs to stratum i mod len(cycle), so every prefix of the op stream holds
the strata in equal shares and the cost distribution is the same for every
seed.  The seed only picks shifts, block structure and coefficients.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import arith
from geometry import CONES, ConeSpec, filtration_window, filtration_window_index, vsub

WORKLOADS = ("command-mix", "spread-filtration", "wide-decompose")

PRODUCT = "product:rational,fp:7"


@dataclass
class Module:
    shifts: list
    e: list  # masked scalar matrix
    ebar: list  # block-diagonal reduction D
    blocks: dict  # shift -> block (list of rows)
    classes: dict  # shift -> class tuple, nonzero classes only


@dataclass
class Op:
    index: int
    stratum: str
    cone: ConeSpec
    base: object  # an arith base
    command: tuple
    extra: tuple
    job: dict
    expect: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return " ".join(self.command)

    def argv(self, job_path: str) -> list:
        return [*self.command, "--job", job_path, *self.extra, "--format", "machine"]


# -- modules -------------------------------------------------------------------


def _coeff(rng: random.Random, base):
    """Small nonzero integer coefficient; for products each factor independently."""
    while True:
        if isinstance(base, arith.Product):
            c = tuple(f.from_int(rng.randint(-2, 2)) for f in base.factors)
        else:
            c = base.from_int(rng.randint(-2, 2))
        if not base.is_zero(c):
            return c


def _diag_entry(rng: random.Random, base, one: bool | None):
    """0/1 diagonal entry (per factor for products); `one` None means random."""
    if isinstance(base, arith.Product):
        bits = [rng.random() < 0.7 if one is None else one for _ in base.factors]
        return tuple(f.one() if b else f.zero() for f, b in zip(base.factors, bits))
    return base.one() if (rng.random() < 0.7 if one is None else one) else base.zero()


def _block(rng: random.Random, base, size: int, nonzero: bool | None):
    """Idempotent T^-1 diag T over the base; returns (block, class).

    nonzero True forces the first diagonal entry to 1, False makes the block
    zero, None leaves every entry random.
    """
    diag = [
        _diag_entry(rng, base, nonzero if (i == 0 or nonzero is False) else None)
        for i in range(size)
    ]
    t = arith.identity(base, size)
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.5:
                t[i][j] = _coeff(rng, base)
    t_inv = arith.unipotent_inverse(base, t)
    d = [[diag[i] if i == j else base.zero() for j in range(size)] for i in range(size)]
    block = arith.mat_mul(base, t_inv, arith.mat_mul(base, d, t))
    cls = tuple(
        sum(1 for x in diag if not f.is_zero(base.component(x, k)))
        for k, f in enumerate(base.factors)
    )
    return block, cls


def make_module(rng: random.Random, cone: ConeSpec, base, shifts, fixed, density=0.5) -> Module:
    """Idempotent over the given shift list.

    `fixed` maps a shift to True (nonzero block) or False (zero block); other
    shifts get random blocks.  Each entry of N allowed by the cone mask is
    nonzero with probability `density`.
    """
    r = len(shifts)
    positions: dict = {}
    for i, b in enumerate(shifts):
        positions.setdefault(b, []).append(i)
    ebar = [[base.zero()] * r for _ in range(r)]
    blocks, classes = {}, {}
    for b, idx in positions.items():
        block, cls = _block(rng, base, len(idx), fixed.get(b))
        blocks[b] = block
        if any(cls):
            classes[b] = cls
        for bi, i in enumerate(idx):
            for bj, j in enumerate(idx):
                ebar[i][j] = block[bi][bj]
    p = arith.identity(base, r)
    for i in range(r):
        for j in range(r):
            d = vsub(shifts[j], shifts[i])
            if any(d) and cone.contains(d) and rng.random() < density:
                p[i][j] = _coeff(rng, base)
    p_inv = arith.unipotent_inverse(base, p)
    e = arith.mat_mul(base, p_inv, arith.mat_mul(base, ebar, p))
    if not arith.mat_eq(base, arith.mat_mul(base, e, e), e):
        raise RuntimeError("generated matrix is not idempotent")
    return Module(list(shifts), e, ebar, blocks, classes)


def module_doc(base, mod: Module) -> dict:
    rows = []
    for i, bi in enumerate(mod.shifts):
        row = []
        for j, bj in enumerate(mod.shifts):
            x = mod.e[i][j]
            row.append(
                [] if base.is_zero(x) else [{"exp": list(vsub(bj, bi)), "coef": base.encode(x)}]
            )
        rows.append(row)
    return {"shifts": [list(b) for b in mod.shifts], "idempotent": rows}


def job_doc(cone: ConeSpec, base, mod: Module | None, params=None) -> dict:
    doc = {
        "scalars": cone.scalars,
        "base": base.descriptor,
        "cone": {"generators": [list(g) for g in cone.generators]},
        "order": {"gamma0": list(cone.gamma0)},
    }
    if cone.named:
        doc["named_generators"] = {k: list(v) for k, v in cone.named.items()}
    if mod is not None:
        doc["module"] = module_doc(base, mod)
    if params:
        doc["params"] = dict(params)
    return doc


def rank_serial(classes: dict) -> list:
    return [{"exp": list(b), "class": list(c)} for b, c in sorted(classes.items())]


def nilpotency_bound(cone: ConeSpec, shifts) -> int:
    """The paper's a-priori bound: largest order value of a nonzero shift gap in C."""
    best = 0
    for bi in shifts:
        for bj in shifts:
            d = vsub(bj, bi)
            if any(d) and cone.contains(d):
                best = max(best, cone.value(d))
    return best


def _points(cone: ConeSpec, lo: int, hi: int) -> list:
    origin = (0,) * cone.n
    return [p for p in cone.window(origin, hi) if cone.value(p) >= lo]


# -- expectations per command ----------------------------------------------------


def _expect_module_command(command: str, cone: ConeSpec, base, mod: Module, params: dict) -> dict:
    """Answers for the commands that read the job's module."""
    exp = {"shifts": [list(b) for b in mod.shifts]}
    if command == "decompose":
        exp["module"] = mod
        exp["nilpotency_bound"] = nilpotency_bound(cone, mod.shifts)
    elif command == "k0":
        exp["class"] = rank_serial(mod.classes)
    elif command == "filtration":
        k = filtration_window_index(cone, list(mod.classes))
        exp["interior_vector"] = list(cone.interior)
        exp["window_k"] = k
        exp["quotients"] = [
            {"point": list(a), "class": rank_serial({a: mod.classes[a]}) if a in mod.classes else []}
            for a in filtration_window(cone, k)
        ]
    elif command == "verify":
        exp["graded_rank"] = rank_serial(mod.classes)
        exp["seed"] = 0  # jobs carry no seed, so verify reports its default
        exp["gamma0"] = list(cone.gamma0)
        exp["base"] = base.descriptor
    elif command == "hilbert":
        bound = params["bound"]
        degrees = set()
        for b in set(mod.shifts):
            degrees.update(cone.window(b, bound))
        rows = []
        for a in sorted(degrees, key=cone.key):
            dim = sum(c[0] for b, c in mod.classes.items() if cone.contains(vsub(a, b)))
            rows.append({"degree": list(a), "dimension": dim, "convolution": dim})
        exp["bound"] = bound
        exp["rows"] = rows
    return exp


class _Poly:
    """Sparse polynomial over the base, keyed by exponent; evaluates generated expressions."""

    def __init__(self, base, terms) -> None:
        self.base = base
        self.terms = {e: c for e, c in terms.items() if not base.is_zero(c)}

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = self.base.add(out[e], c) if e in out else c
        return _Poly(self.base, out)

    def __neg__(self):
        return _Poly(self.base, {e: self.base.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = self.base.mul(c1, c2)
                out[e] = self.base.add(out[e], c) if e in out else c
        return _Poly(self.base, out)


def _ring_expression(rng: random.Random, cone: ConeSpec, base, power: int):
    """Random expression text and its value, e.g. "(X + 3*Y + 2)^6 - 4*X*Y"."""
    names = sorted(cone.named)
    origin = (0,) * cone.n

    def const(n):
        return _Poly(base, {origin: base.from_int(n)})

    def gen(name):
        return _Poly(base, {tuple(cone.named[name]): base.one()})

    parts, value = [], const(0)
    for name in rng.sample(names, min(3, len(names))):
        c = rng.randint(1, 5)
        parts.append(name if c == 1 else f"{c}*{name}")
        value = value + const(c) * gen(name)
    c0 = rng.randint(1, 5)
    parts.append(str(c0))
    value = value + const(c0)
    result = const(1)
    for _ in range(power):
        result = result * value
    g1, g2 = rng.choice(names), rng.choice(names)
    c1 = rng.randint(1, 9)
    text = "(" + " + ".join(parts) + f")^{power} - {c1}*{g1}*{g2}"
    result = result - const(c1) * gen(g1) * gen(g2)
    terms = sorted(result.terms.items(), key=lambda kv: cone.key(kv[0]))
    return text, [(list(e), c) for e, c in terms]


# -- workloads -------------------------------------------------------------------

# command-mix: every command three times per cycle, spread over cones and bases.
_MIX = (
    ("cone check", "R1", "rational"), ("cone check", "R3", "rational"),
    ("cone check", "Q3", "rational"),
    ("enumerate", "R2", "rational"), ("enumerate", "R3", "fp:7"),
    ("enumerate", "Q3", "rational"),
    ("ring eval", "R1", "rational"), ("ring eval", "R2", "fp:7"),
    ("ring eval", "Q3", PRODUCT),
    ("decompose", "R1", "quadratic:2"), ("decompose", "R3", PRODUCT),
    ("decompose", "Q3", "fp:7"),
    ("filtration", "R2", "rational"), ("filtration", "R3", "quadratic:2"),
    ("filtration", "Q3", PRODUCT),
    ("k0", "R1", "fp:7"), ("k0", "R2", PRODUCT), ("k0", "Q3", "quadratic:2"),
    ("verify", "R1", PRODUCT), ("verify", "R3", "rational"), ("verify", "Q3", "fp:7"),
    ("hilbert", "R1", "quadratic:2"), ("hilbert", "R2", "fp:7"), ("hilbert", "R3", "rational"),
)

# spread-filtration: shifts at order values 0 and s on R1 and R3, s = 4
# (three summands, a zero block between the two) and s = 6 (the free module
# of rank two).  Larger spreads make single ops so long that bursts of outside
# load on a shared machine rarely leave one untouched; crosscheck.py times
# s = 10.  Few strata give each many instances in a run, which the
# per-stratum minimum in run.py relies on.
_SPREAD = tuple(
    (cmd, cone, "fp:7" if cone == "R1" else "rational", s, 3 if s == 4 else 2)
    for cmd in ("filtration", "verify")
    for cone in ("R1", "R3")
    for s in (4, 6)
)

# wide-decompose: 8-16 summands, about half as many distinct shifts, order
# values 0..40 with both ends present, so the paper's bound is always 40.
_WIDE = tuple(
    (cmd, cone, "fp:7" if (r // 4 + i) % 2 else "rational", r)
    for cmd in ("decompose", "k0")
    for i, cone in enumerate(("R1", "R2", "R3"))
    for r in (8, 12, 16)
)

WIDE_TOP = 40


def _top_shift(rng: random.Random, cone: ConeSpec, value: int):
    """A shift at the given order value whose window index is as small as possible.

    Shifts of equal value can need window index k or k + 1 depending on the
    lexicographic tie-break; fixing k keeps the window size, and so the cost,
    the same for every seed.
    """
    origin = (0,) * cone.n
    k = -(-value // cone.value(cone.interior))
    return rng.choice(
        [p for p in _points(cone, value, value) if filtration_window_index(cone, [origin, p]) == k]
    )


def _small_shifts(rng: random.Random, cone: ConeSpec, r: int):
    """Origin and a top shift at value 3 (both nonzero) plus r - 2 random ones."""
    origin = (0,) * cone.n
    top = _top_shift(rng, cone, 3)
    pool = _points(cone, 0, 3)
    shifts = [origin, top] + [rng.choice(pool) for _ in range(r - 2)]
    rng.shuffle(shifts)
    return shifts, {origin: True, top: True}


def _spread_shifts(rng: random.Random, cone: ConeSpec, s: int, r: int):
    """Origin and a top shift at value s, both nonzero; for three summands a
    zero-block shift between them.  Window index, support mask and ranks are
    then the same for every seed (two summands give the free module)."""
    origin = (0,) * cone.n
    top = _top_shift(rng, cone, s)
    shifts, fixed = [origin, top], {origin: True, top: True}
    if r == 3:
        between = [p for p in _points(cone, 1, s - 1) if cone.contains(vsub(top, p))]
        middle = rng.choice(between)
        shifts.append(middle)
        fixed[middle] = False
    rng.shuffle(shifts)
    return shifts, fixed


def _wide_shifts(rng: random.Random, cone: ConeSpec, r: int):
    """Origin, a top shift at value WIDE_TOP and r/2 more distinct shifts, repeated to r."""
    origin = (0,) * cone.n
    top = rng.choice(_points(cone, WIDE_TOP, WIDE_TOP))
    distinct = [origin, top] + rng.sample(_points(cone, 1, WIDE_TOP - 1), r // 2)
    shifts = list(distinct) + [rng.choice(distinct) for _ in range(r - len(distinct))]
    rng.shuffle(shifts)
    return shifts, {origin: True, top: True}


def _cycle(workload: str):
    return {"command-mix": _MIX, "spread-filtration": _SPREAD, "wide-decompose": _WIDE}[workload]


def cycle_length(workload: str) -> int:
    return len(_cycle(workload))


def cones_of(workload: str) -> list:
    return sorted({row[1] for row in _cycle(workload)})


def make_op(workload: str, seed: int, index: int) -> Op:
    """Op number `index` of the workload's stream for this seed."""
    row = _cycle(workload)[index % len(_cycle(workload))]
    command, cone_name, base_name = row[0], row[1], row[2]
    rng = random.Random(f"{workload}/{seed}/{index}")
    cone = CONES[cone_name]
    base = arith.base_from_descriptor(base_name)
    stratum = "/".join(str(x) for x in row)
    params: dict = {}
    extra: tuple = ()
    density = 0.5
    if workload == "spread-filtration":
        shifts, fixed = _spread_shifts(rng, cone, row[3], row[4])
        density = 1.0
    elif workload == "wide-decompose":
        shifts, fixed = _wide_shifts(rng, cone, row[3])
    else:
        shifts, fixed = _small_shifts(rng, cone, 4 if command in ("decompose", "k0") else 3)
    mod = make_module(rng, cone, base, shifts, fixed, density)

    expect: dict = {}
    if command == "enumerate":
        base_point = tuple(rng.randint(-2, 2) for _ in range(cone.n))
        slack = 8 if cone.n == 2 else 5
        params["bound"] = cone.value(base_point) + slack
        extra = ("--base-point=" + ",".join(str(x) for x in base_point),)
        expect = {
            "bound": params["bound"],
            "base": list(base_point),
            "gamma0": list(cone.gamma0),
            "points": [list(p) for p in cone.window(base_point, params["bound"])],
        }
    elif command == "ring eval":
        text, terms = _ring_expression(rng, cone, base, 6 if cone.n == 2 else 4)
        extra = ("--expr=" + text,)
        expect = {"expr": text, "result": terms}
    else:
        if command == "hilbert":
            params["bound"] = 6
        expect = _expect_module_command(command, cone, base, mod, params)
    return Op(
        index=index,
        stratum=stratum,
        cone=cone,
        base=base,
        command=tuple(command.split()),
        extra=extra,
        job=job_doc(cone, base, mod, params),
        expect=expect,
    )


def setup_jobs(workload: str) -> list:
    """One ring-only job per cone the workload uses (for the set-up measurement)."""
    return [job_doc(CONES[c], arith.Rational(), None) for c in cones_of(workload)]


def free_module_op(cone_name: str, shifts, command: str) -> Op:
    """`command` on the free module with the given shifts (identity idempotent)."""
    cone, base = CONES[cone_name], arith.Rational()
    shifts = [tuple(b) for b in shifts]
    ident = arith.identity(base, len(shifts))
    blocks = {b: [[base.one()]] for b in shifts}
    mod = Module(shifts, ident, ident, blocks, {b: (1,) for b in shifts})
    return Op(
        index=0,
        stratum=f"{command}/{cone_name}/free/{shifts}",
        cone=cone,
        base=base,
        command=tuple(command.split()),
        extra=(),
        job=job_doc(cone, base, mod),
        expect=_expect_module_command(command, cone, base, mod, {}),
    )
