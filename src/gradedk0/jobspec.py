"""Structured job input: parsing, validation, canonical serialization.

A job is a JSON document describing the scalar field for the cone, the
coefficient base, the cone generators, an optional order-form override,
optional named monomials, an optional module (shift list plus idempotent as
a matrix of term lists) and optional command parameters.  Unknown fields are
rejected, every diagnostic carries the offending field path, and parsing a
canonical serialization returns an equal JobSpec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cones import Cone, OrderForm
from .errors import JobSyntaxError, JobValidationError
from .modules import GradedMatrix, IdempotentPresentation
from .rings import GradedRing, from_term_list
from .scalars import base_ring_from_descriptor

_PARAM_KEYS = ("bound", "window_k", "seed", "axis")


@dataclass
class JobSpec:
    scalars: str
    base: str
    cone_generators: list
    gamma0: list | None = None
    named_generators: dict = field(default_factory=dict)
    module_shifts: list | None = None
    module_idempotent: list | None = None
    params: dict = field(default_factory=dict)


def _err(path: str, message: str) -> JobValidationError:
    return JobValidationError(f"{path}: {message}")


def _expect_object(value, path: str, allowed) -> dict:
    if not isinstance(value, dict):
        raise _err(path, "expected an object")
    for key in value:
        if key not in allowed:
            raise _err(f"{path}.{key}", "unknown field")
    return value


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _err(path, "expected an integer")
    return value


def _expect_int_vector(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise _err(path, "expected a nonempty array of integers")
    return [_expect_int(x, f"{path}[{i}]") for i, x in enumerate(value)]


def parse_job(text: str, build: bool = True) -> JobSpec:
    """Parse and fully validate a job document; diagnostics carry locations.

    With build=True (the default) the ring and module are constructed once to
    surface every cross-reference error (order form positivity, exponents
    outside the cone, non-idempotent matrices) at parse time.  Geometry-only
    consumers pass build=False and work with the cone alone, so that
    pointedness stays a reportable outcome rather than a precondition.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JobSyntaxError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise JobSyntaxError("JSON nested too deeply") from None
    allowed = ("scalars", "base", "cone", "order", "named_generators", "module", "params")
    data = _expect_object(data, "job", allowed)

    scalars = data.get("scalars", "rational")
    if not isinstance(scalars, str):
        raise _err("scalars", "expected a string")
    try:
        scalar_field = base_ring_from_descriptor(scalars)
    except ValueError as exc:
        raise _err("scalars", str(exc)) from None

    base = data.get("base", "rational")
    if not isinstance(base, str):
        raise _err("base", "expected a string")
    try:
        base_ring_from_descriptor(base)
    except ValueError as exc:
        raise _err("base", str(exc)) from None

    cone_obj = _expect_object(data.get("cone", {}), "cone", ("generators",))
    gens_in = cone_obj.get("generators")
    if not isinstance(gens_in, list) or not gens_in:
        raise _err("cone.generators", "expected a nonempty array of vectors")
    generators = []
    for i, vec in enumerate(gens_in):
        if not isinstance(vec, list) or not vec:
            raise _err(f"cone.generators[{i}]", "expected a nonempty array")
        out = []
        for j, entry in enumerate(vec):
            path = f"cone.generators[{i}][{j}]"
            if isinstance(entry, bool):
                raise _err(path, "expected an integer or scalar encoding")
            if isinstance(entry, int):
                out.append(scalar_field.encode(scalar_field.from_int(entry)))
            elif isinstance(entry, str):
                try:
                    out.append(scalar_field.encode(scalar_field.parse(entry)))
                except ValueError as exc:
                    raise _err(path, str(exc)) from None
            else:
                raise _err(path, "expected an integer or scalar encoding")
        generators.append(out)

    gamma0 = None
    if "order" in data:
        order_obj = _expect_object(data["order"], "order", ("gamma0",))
        if "gamma0" not in order_obj:
            raise _err("order.gamma0", "missing")
        gamma0 = _expect_int_vector(order_obj["gamma0"], "order.gamma0")

    named: dict = {}
    if "named_generators" in data:
        if not isinstance(data["named_generators"], dict):
            raise _err("named_generators", "expected an object")
        for name, vec in data["named_generators"].items():
            named[name] = _expect_int_vector(vec, f"named_generators.{name}")

    module_shifts = None
    module_idempotent = None
    if "module" in data:
        mod = _expect_object(data["module"], "module", ("shifts", "idempotent"))
        if "shifts" not in mod or "idempotent" not in mod:
            raise _err("module", "needs both shifts and idempotent")
        if not isinstance(mod["shifts"], list):
            raise _err("module.shifts", "expected an array of integer vectors")
        module_shifts = [
            _expect_int_vector(b, f"module.shifts[{i}]")
            for i, b in enumerate(mod["shifts"])
        ]
        rows = mod["idempotent"]
        if not isinstance(rows, list) or len(rows) != len(module_shifts):
            raise _err("module.idempotent", "expected one row per shift")
        module_idempotent = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != len(module_shifts):
                raise _err(f"module.idempotent[{i}]", "expected one entry per shift")
            out_row = []
            for j, terms in enumerate(row):
                path = f"module.idempotent[{i}][{j}]"
                if not isinstance(terms, list):
                    raise _err(path, "expected an array of terms")
                out_terms = []
                for t, term in enumerate(terms):
                    term = _expect_object(term, f"{path}[{t}]", ("exp", "coef"))
                    if "exp" not in term or "coef" not in term:
                        raise _err(f"{path}[{t}]", "term needs exp and coef")
                    exp = _expect_int_vector(term["exp"], f"{path}[{t}].exp")
                    if not isinstance(term["coef"], str):
                        raise _err(f"{path}[{t}].coef", "expected a scalar encoding")
                    out_terms.append({"exp": exp, "coef": term["coef"]})
                out_row.append(out_terms)
            module_idempotent.append(out_row)

    params: dict = {}
    if "params" in data:
        pobj = _expect_object(data["params"], "params", _PARAM_KEYS)
        for key, value in pobj.items():
            params[key] = _expect_int(value, f"params.{key}")

    spec = JobSpec(
        scalars=scalars,
        base=base,
        cone_generators=generators,
        gamma0=gamma0,
        named_generators=named,
        module_shifts=module_shifts,
        module_idempotent=module_idempotent,
        params=params,
    )
    if build:
        # cross-validation: building the ring and module surfaces geometry errors
        ring = build_ring(spec)
        build_module(spec, ring)
    else:
        build_cone(spec)
    return spec


def serialize_job(spec: JobSpec) -> str:
    """Canonical serialization; parse_job of the result equals the spec."""
    doc: dict = {
        "scalars": spec.scalars,
        "base": spec.base,
        "cone": {"generators": spec.cone_generators},
    }
    if spec.gamma0 is not None:
        doc["order"] = {"gamma0": list(spec.gamma0)}
    if spec.named_generators:
        doc["named_generators"] = {k: list(v) for k, v in spec.named_generators.items()}
    if spec.module_shifts is not None:
        doc["module"] = {
            "shifts": [list(b) for b in spec.module_shifts],
            "idempotent": spec.module_idempotent,
        }
    if spec.params:
        doc["params"] = dict(sorted(spec.params.items()))
    return json.dumps(doc, indent=2) + "\n"


def build_cone(spec: JobSpec) -> Cone:
    try:
        scalar_field = base_ring_from_descriptor(spec.scalars)
    except ValueError as exc:
        raise _err("scalars", str(exc)) from None
    try:
        gens = [[scalar_field.parse(x) for x in vec] for vec in spec.cone_generators]
        return Cone(gens, scalar_field)
    except ValueError as exc:
        raise _err("cone", str(exc)) from None


def build_ring(spec: JobSpec):
    try:
        base = base_ring_from_descriptor(spec.base)
    except ValueError as exc:
        raise _err("base", str(exc)) from None
    cone = build_cone(spec)
    order = OrderForm(tuple(spec.gamma0)) if spec.gamma0 is not None else None
    try:
        return GradedRing(base, cone, order=order, named_generators=spec.named_generators)
    except ValueError as exc:
        raise _err("order" if "order form" in str(exc) else "cone", str(exc)) from None


def build_module(spec: JobSpec, ring: GradedRing):
    if spec.module_shifts is None:
        return None
    try:
        shifts = tuple(tuple(b) for b in spec.module_shifts)
        entries = [
            [from_term_list(ring, terms) for terms in row]
            for row in spec.module_idempotent
        ]
        matrix = GradedMatrix(ring, shifts, shifts, entries)
        return IdempotentPresentation(ring, shifts, matrix)
    except ValueError as exc:
        raise _err("module", str(exc)) from None


def job_from_module(ring: GradedRing, pres: IdempotentPresentation, scalars: str, base: str) -> JobSpec:
    """JobSpec describing an existing ring and presentation (for round trips)."""
    field_ = ring.cone.field
    gens = [
        [field_.encode(x) for x in g] for g in ring.cone.generators
    ]
    return JobSpec(
        scalars=scalars,
        base=base,
        cone_generators=gens,
        gamma0=list(ring.order.gamma0),
        named_generators={k: list(v) for k, v in ring.named_generators.items()},
        module_shifts=[list(b) for b in pres.shifts],
        module_idempotent=[
            [entry.to_term_list() for entry in row] for row in pres.matrix.entries
        ],
    )
