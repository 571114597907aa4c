"""Command-line interface.

Commands: `cone check`, `enumerate`, `ring eval`, `decompose`, `filtration`,
`k0`, `verify`, `hilbert`.  Input is a job file (--job) or a built-in preset
(--example R1|R2|R3); output is human text by default or a machine-readable
JSON document with --format machine.

Exit codes: 0 success, 2 input parse error, 3 validation error, 4 a
requested check failed, 5 internal error.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys

from .cones import enumerate_window
from .errors import JobSyntaxError, JobValidationError
from .jobspec import build_cone, build_module, build_ring, parse_job
from .k0 import GradedRankClass, graded_rank, hilbert_table, verify_theorem_k0
from .modules import (
    IdempotentPresentation,
    conjugator,
    filtration_walk,
    filtration_window,
    window_index,
)
from .presets import PRESET_NAMES, default_sample_modules, preset_ring, sample_degrees
from .scalars import base_ring_descriptor, base_ring_from_descriptor

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CHECK = 4
EXIT_INTERNAL = 5

# (exception types, stderr label, exit code): the first matching row wins
EXIT_TABLE = (
    (JobSyntaxError, "parse error", EXIT_PARSE),
    ((JobValidationError, OSError, ValueError, ZeroDivisionError), "validation error", EXIT_VALIDATION),
    (Exception, "internal error", EXIT_INTERNAL),
)


def _point_str(p) -> str:
    return "(" + ",".join(str(x) for x in p) + ")"


def _parse_point(text: str, n: int | None = None):
    try:
        point = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise JobValidationError(f"not an integer vector: {text!r}") from None
    if n is not None and len(point) != n:
        raise JobValidationError(f"expected {n} coordinates: {text!r}")
    return point


def eval_ring_expression(ring, text: str):
    """Evaluate +, -, *, ^ over named monomials and integer literals."""
    try:
        tree = ast.parse(text.replace("^", "**").strip(), mode="eval")
    except SyntaxError as exc:
        raise JobSyntaxError(f"expression: {exc.msg}") from None
    except (RecursionError, MemoryError):
        raise JobSyntaxError("expression: nested too deeply or too large") from None

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Add):
                return ev(node.left) + ev(node.right)
            if isinstance(node.op, ast.Sub):
                return ev(node.left) - ev(node.right)
            if isinstance(node.op, ast.Mult):
                return ev(node.left) * ev(node.right)
            if isinstance(node.op, ast.Pow):
                exp = node.right
                if (
                    not isinstance(exp, ast.Constant)
                    or isinstance(exp.value, bool)
                    or not isinstance(exp.value, int)
                    or exp.value < 0
                ):
                    raise JobValidationError(
                        "expression: exponents must be literal nonnegative integers"
                    )
                return ev(node.left) ** exp.value
            raise JobValidationError("expression: unsupported operator")
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return -ev(node.operand)
            if isinstance(node.op, ast.UAdd):
                return ev(node.operand)
            raise JobValidationError("expression: unsupported operator")
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, int):
                raise JobValidationError("expression: only integer constants")
            return ring.constant(node.value)
        if isinstance(node, ast.Name):
            try:
                return ring.gen(node.id)
            except ValueError as exc:
                raise JobValidationError(f"expression: {exc}") from None
        raise JobValidationError("expression: unsupported syntax")

    try:
        return ev(tree)
    except (RecursionError, MemoryError):
        raise JobSyntaxError("expression: nested too deeply or too large") from None


def _load_context(args):
    """(ring, module-or-None, label) from --job or --example."""
    gamma0 = (
        _parse_point(args.gamma0) if getattr(args, "gamma0", None) else None
    )
    if getattr(args, "job", None):
        with open(args.job, "r", encoding="utf-8") as fh:
            text = fh.read()
        spec = parse_job(text)
        if getattr(args, "base", None):
            spec.base = args.base
        if gamma0 is not None:
            spec.gamma0 = list(gamma0)
        ring = build_ring(spec)
        module = build_module(spec, ring)
        for key, value in spec.params.items():
            if getattr(args, key, None) is None and hasattr(args, key):
                setattr(args, key, value)
        return ring, module, "job"
    name = args.example
    try:
        base = base_ring_from_descriptor(getattr(args, "base", None) or "rational")
        ring = preset_ring(name, base=base, gamma0=gamma0)
    except ValueError as exc:
        raise JobValidationError(str(exc)) from None
    return ring, None, name


def _default_module(ring) -> IdempotentPresentation:
    g = sample_degrees(ring)[0]
    return IdempotentPresentation.free(ring, (ring.origin, tuple(g)))


def _facet_strs(ring_or_cone):
    cone = getattr(ring_or_cone, "cone", ring_or_cone)
    field = cone.field
    return ["(" + ",".join(field.encode(x) for x in h) + ")" for h in cone.facets]


def cmd_cone_check(args):
    if getattr(args, "job", None):
        with open(args.job, "r", encoding="utf-8") as fh:
            cone = build_cone(parse_job(fh.read(), build=False))
        label = "job"
    else:
        cone = preset_ring(args.example).cone
        label = args.example
    full = cone.is_full_dimensional()
    pointed, order = cone.is_pointed()
    doc = {
        "command": "cone-check",
        "input": label,
        "ambient_dimension": cone.n,
        "full_dimensional": full,
        "pointed": pointed,
    }
    lines = [
        f"ambient dimension: {cone.n}",
        f"full-dimensional: {'yes' if full else 'no'}",
        f"pointed: {'yes' if pointed else 'no'}",
    ]
    if pointed:
        doc["gamma0"] = list(order.gamma0)
        lines.append(f"gamma0: {_point_str(order.gamma0)}")
    else:
        x, y = cone.opposite_pair()
        field = cone.field
        pair = [[field.encode(c) for c in x], [field.encode(c) for c in y]]
        doc["opposite_pair"] = pair
        lines.append(
            "opposite directions inside the cone: "
            + ", ".join("(" + ",".join(v) + ")" for v in pair)
        )
    if full:
        doc["facets"] = _facet_strs(cone)
        lines.append("facets: " + ", ".join(_facet_strs(cone)))
    code = EXIT_OK if (pointed and full) else EXIT_CHECK
    return code, "\n".join(lines), doc


def cmd_enumerate(args):
    ring, _, label = _load_context(args)
    bound = args.bound if args.bound is not None else 5
    base_point = (
        _parse_point(args.base_point, ring.n) if args.base_point else ring.origin
    )
    points = enumerate_window(ring.order, ring.cone, base_point, bound)
    doc = {
        "command": "enumerate",
        "input": label,
        "gamma0": list(ring.order.gamma0),
        "bound": bound,
        "base": list(base_point),
        "points": [list(p) for p in points],
    }
    return EXIT_OK, "\n".join(_point_str(p) for p in points), doc


def cmd_ring_eval(args):
    ring, _, label = _load_context(args)
    result = eval_ring_expression(ring, args.expr)
    doc = {
        "command": "ring-eval",
        "input": label,
        "expr": args.expr,
        "result": result.to_term_list(),
    }
    return EXIT_OK, str(result), doc


def cmd_decompose(args):
    ring, module, label = _load_context(args)
    pres = module if module is not None else _default_module(ring)
    dec = conjugator(pres)
    base = ring.base
    blocks = [
        {
            "shift": list(b),
            "block": [[base.encode(x) for x in row] for row in blk],
        }
        for b, blk in sorted(dec.blocks.items())
    ]
    doc = {
        "command": "decompose",
        "input": label,
        "shifts": [list(b) for b in pres.shifts],
        "blocks": blocks,
        "u": dec.u.to_serializable(),
        "u_inv": dec.u_inv.to_serializable(),
        "nilpotency_bound": dec.nilpotency_bound,
    }
    lines = ["blocks:"]
    for item in blocks:
        lines.append(
            f"  {_point_str(item['shift'])}: "
            + "; ".join(", ".join(row) for row in item["block"])
        )
    lines.append(f"u: {dec.u!r}")
    lines.append(f"u_inv: {dec.u_inv!r}")
    return EXIT_OK, "\n".join(lines), doc


def cmd_filtration(args):
    ring, module, label = _load_context(args)
    pres = module if module is not None else _default_module(ring)
    v = ring.cone.interior_vector()
    k = max(window_index(pres, v), args.window_k or 0)
    window = filtration_window(ring, v, k)
    rows = [
        (a, step.quotient_class)
        for a, step in filtration_walk(pres, window, graded_rank)
    ]
    quotients = [{"point": list(a), "class": cls.serialize()} for a, cls in rows]
    doc = {
        "command": "filtration",
        "input": label,
        "interior_vector": list(v),
        "window_k": k,
        "quotients": quotients,
    }
    lines = [f"interior vector: {_point_str(v)}", f"window index k: {k}"]
    lines += [f"{_point_str(a)}: {cls}" for a, cls in rows]
    return EXIT_OK, "\n".join(lines), doc


def cmd_k0(args):
    ring, module, label = _load_context(args)
    if module is not None:
        pres = module
    elif args.shift:
        pres = IdempotentPresentation.free(ring, (_parse_point(args.shift, ring.n),))
    else:
        pres = IdempotentPresentation.free(ring, (ring.origin,))
    cls = graded_rank(pres)
    doc = {
        "command": "k0",
        "input": label,
        "shifts": [list(b) for b in pres.shifts],
        "class": cls.serialize(),
    }
    return EXIT_OK, str(cls), doc


def cmd_verify(args):
    ring, module, label = _load_context(args)
    seed = args.seed if args.seed is not None else 0
    if module is not None:
        samples = [("module", module)]
    else:
        samples = default_sample_modules(ring, seed)
    out_samples = []
    lines = []
    all_ok = True
    for name, pres in samples:
        report = verify_theorem_k0(pres, window_k=args.window_k)
        report = {"name": name, **report}
        out_samples.append(report)
        status = "PASS" if report["all_passed"] else "FAIL"
        all_ok = all_ok and report["all_passed"]
        rank_str = str(
            GradedRankClass(
                {tuple(t["exp"]): tuple(t["class"]) for t in report["graded_rank"]}
            )
        )
        lines.append(f"{status} {name}: graded rank {rank_str}")
        if not report["all_passed"]:
            for check in report["checks"]:
                if not check["passed"]:
                    lines.append(f"  failed check: {check['name']}")
    lines.append("result: " + ("all checks passed" if all_ok else "checks FAILED"))
    doc = {
        "command": "verify",
        "input": label,
        "base": base_ring_descriptor(ring.base),
        "gamma0": list(ring.order.gamma0),
        "seed": seed,
        "samples": out_samples,
        "all_passed": all_ok,
    }
    return (EXIT_OK if all_ok else EXIT_CHECK), "\n".join(lines), doc


def cmd_hilbert(args):
    ring, module, label = _load_context(args)
    pres = module if module is not None else _default_module(ring)
    bound = args.bound if args.bound is not None else 10
    rows = hilbert_table(pres, bound)
    passed = all(dim == conv for _, dim, conv in rows)
    doc = {
        "command": "hilbert",
        "input": label,
        "bound": bound,
        "rows": [
            {"degree": list(a), "dimension": dim, "convolution": conv}
            for a, dim, conv in rows
        ],
        "passed": passed,
    }
    lines = [f"{_point_str(a)} dim={dim} convolution={conv}" for a, dim, conv in rows]
    lines.append("convolution check: " + ("pass" if passed else "FAIL"))
    return (EXIT_OK if passed else EXIT_CHECK), "\n".join(lines), doc


def _add_input_options(parser: argparse.ArgumentParser, need_input: bool = True) -> None:
    group = parser.add_mutually_exclusive_group(required=need_input)
    group.add_argument("--job", help="path to a JSON job file")
    group.add_argument("--example", choices=PRESET_NAMES, help="built-in preset")
    parser.add_argument("--base", help="coefficient base descriptor override")
    parser.add_argument("--gamma0", help="order form override, e.g. 2,3")
    parser.add_argument(
        "--format", choices=("human", "machine"), default="human", dest="fmt"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedk0",
        description="Exact graded K0 for monoid rings on pointed cones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cone = sub.add_parser("cone", help="cone geometry commands")
    cone_sub = cone.add_subparsers(dest="subcommand", required=True)
    cone_check = cone_sub.add_parser("check", help="pointedness, dimension, witness")
    _add_input_options(cone_check)
    cone_check.set_defaults(handler=cmd_cone_check)

    ring = sub.add_parser("ring", help="ring arithmetic commands")
    ring_sub = ring.add_subparsers(dest="subcommand", required=True)
    ring_eval = ring_sub.add_parser("eval", help="evaluate an expression")
    _add_input_options(ring_eval)
    ring_eval.add_argument("--expr", required=True, help="e.g. \"U*W - V^2\"")
    ring_eval.set_defaults(handler=cmd_ring_eval)

    enum = sub.add_parser("enumerate", help="ascending window of lattice points")
    _add_input_options(enum)
    enum.add_argument("--bound", type=int, help="gamma0 bound (default 5)")
    enum.add_argument("--base-point", dest="base_point", help="window base, e.g. 0,0")
    enum.set_defaults(handler=cmd_enumerate)

    dec = sub.add_parser("decompose", help="blocks and conjugating pair")
    _add_input_options(dec)
    dec.set_defaults(handler=cmd_decompose)

    filt = sub.add_parser("filtration", help="window points and quotient classes")
    _add_input_options(filt)
    filt.add_argument("--window-k", dest="window_k", type=int)
    filt.set_defaults(handler=cmd_filtration)

    k0cmd = sub.add_parser("k0", help="graded rank class")
    _add_input_options(k0cmd)
    k0cmd.add_argument("--shift", help="use the free module R(-b), e.g. --shift 1,0")
    k0cmd.set_defaults(handler=cmd_k0)

    ver = sub.add_parser("verify", help="full verification report")
    _add_input_options(ver)
    ver.add_argument("--seed", type=int, help="seed for random samples (default 0)")
    ver.add_argument("--window-k", dest="window_k", type=int)
    ver.set_defaults(handler=cmd_verify)

    hil = sub.add_parser("hilbert", help="dimension table and convolution check")
    _add_input_options(hil)
    hil.add_argument("--bound", type=int, help="gamma0 bound (default 10)")
    hil.set_defaults(handler=cmd_hilbert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, human, doc = args.handler(args)
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        _, label, exit_code = next(row for row in EXIT_TABLE if isinstance(exc, row[0]))
        print(f"{label}: {exc}", file=sys.stderr)
        return exit_code
    if args.fmt == "machine":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(human)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
