"""File formats: groups, homomorphisms, templates, Label Cover instances,
equation systems, families, and assignments.

All rationals serialize as lowest-terms "p/q" strings; canonical form sorts
keys so that parse-then-serialize is byte-identical.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import numpy as np

from . import catalog
from .errors import InvalidParams
from .groups import (
    FiniteGroup,
    Template,
    full_subgroup,
    make_group,
    make_homomorphism,
    subgroup,
    validate_template,
)
from .reduction import (
    AssignmentFamily,
    LabelCoverInstance,
    LinSystem,
    SystemArrays,
    make_label_cover,
)


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s) -> Fraction:
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    text = str(s).strip().lower()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParams(f"not a rational: {s!r}") from exc


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def jsonable(x):
    """Recursively convert package values into plain JSON types."""
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return [jsonable(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


# -- groups -----------------------------------------------------------------

def group_to_obj(g: FiniteGroup) -> dict:
    return {
        "name": g.name,
        "elements": list(g.elements),
        "table": [list(row) for row in g.table],
    }


def obj_to_group(obj: dict) -> FiniteGroup:
    return make_group(obj["elements"], obj["table"], obj.get("name", "group"))


def _resolve_ref(ref: str, base_dir: str) -> str:
    if os.path.isabs(ref):
        return ref
    return os.path.join(base_dir, ref)


def load_group(ref: str, base_dir: str = ".") -> FiniteGroup:
    """A group from a catalog name, a ``catalog:`` ref, or a JSON file."""
    if ref.startswith("catalog:"):
        return catalog.group(ref.split(":", 1)[1])
    try:
        return catalog.group(ref)
    except KeyError:
        pass
    with open(_resolve_ref(ref, base_dir), encoding="utf-8") as fh:
        return obj_to_group(json.load(fh))


# -- templates --------------------------------------------------------------

def template_to_obj(t: Template, g1_ref: str, g2_ref: str) -> dict:
    return {
        "name": t.name,
        "g1": g1_ref,
        "g2": g2_ref,
        "homomorphism": {
            "domain": list(t.h1.members),
            "map": {str(a): b for a, b in t.phi.mapping},
        },
    }


def obj_to_template(obj: dict, base_dir: str = ".") -> Template:
    g1 = load_group(obj["g1"], base_dir)
    g2 = load_group(obj["g2"], base_dir)
    hom_obj = obj["homomorphism"]
    if isinstance(hom_obj, str):
        with open(_resolve_ref(hom_obj, base_dir), encoding="utf-8") as fh:
            hom_obj = json.load(fh)
    domain = [int(x) for x in hom_obj["domain"]]
    mapping = {int(k): int(v) for k, v in hom_obj["map"].items()}
    if sorted(domain) == list(range(len(g1))):
        dom = full_subgroup(g1)
    else:
        dom = subgroup(g1, domain)
    phi = make_homomorphism(dom, g2, mapping)
    return validate_template(g1, g2, phi, obj.get("name", "template"))


def load_template(ref: str, base_dir: str = ".") -> Template:
    if ref.startswith("catalog:"):
        return catalog.template(ref.split(":", 1)[1])
    try:
        return catalog.template(ref)
    except KeyError:
        pass
    path = _resolve_ref(ref, base_dir)
    with open(path, encoding="utf-8") as fh:
        return obj_to_template(json.load(fh), os.path.dirname(os.path.abspath(path)))


# -- label cover ------------------------------------------------------------

def lc_to_obj(lc: LabelCoverInstance) -> dict:
    return {
        "D": list(lc.d_labels),
        "E": list(lc.e_labels),
        "U": list(lc.u_names),
        "V": list(lc.v_names),
        "edges": [
            {"u": u, "v": v, "pi": {d: e for d, e in pi}} for u, v, pi in lc.edges
        ],
    }


def obj_to_lc(obj: dict) -> LabelCoverInstance:
    return make_label_cover(
        obj["D"],
        obj["E"],
        obj["U"],
        obj["V"],
        [(e["u"], e["v"], e["pi"]) for e in obj["edges"]],
    )


def load_lc(ref: str, base_dir: str = ".") -> LabelCoverInstance:
    if ref.startswith("catalog:"):
        return catalog.label_cover(ref.split(":", 1)[1])
    try:
        return catalog.label_cover(ref)
    except KeyError:
        pass
    with open(_resolve_ref(ref, base_dir), encoding="utf-8") as fh:
        return obj_to_lc(json.load(fh))


# -- systems ----------------------------------------------------------------

def system_to_obj(system: LinSystem, template_ref: str) -> dict:
    enc, names = system.arrays, system.variables
    weights = [frac_str(w) for w in enc.weights]
    return {
        "template": template_ref,
        "variables": list(names),
        "equations": [
            {
                "terms": [[names[x], s], [names[y], t], [names[z], r]],
                "rhs": h,
                "weight": weights[c],
            }
            for (x, y, z), (s, t, r), h, c in zip(
                enc.var_ids.tolist(),
                enc.signs.tolist(),
                enc.rhs.tolist(),
                enc.weight_class.tolist(),
            )
        ],
    }


def obj_to_system(obj: dict, template: Template) -> LinSystem:
    """A system from its JSON object, encoded straight into arrays; the
    system validates the encoding."""
    variables = tuple(str(v) for v in obj["variables"])
    index = {v: k for k, v in enumerate(variables)}
    eqs = obj["equations"]
    terms = [eq["terms"] for eq in eqs]
    if any(len(t) != 3 for t in terms):
        raise InvalidParams("an equation has exactly three terms")
    flat = [term for t in terms for term in t]
    try:
        var_ids = np.fromiter((index[str(v)] for v, _ in flat), np.int64, len(flat))
    except KeyError as exc:
        raise InvalidParams(f"equation uses unknown variable {exc.args[0]}") from None
    # each distinct weight text is parsed once; equal values share a class
    classes: dict[Fraction, int] = {}
    by_text: dict[str, int] = {}

    def weight_class(raw) -> int:
        text = str(raw)
        if text not in by_text:
            by_text[text] = classes.setdefault(parse_frac(raw), len(classes))
        return by_text[text]

    arrays = SystemArrays(
        var_ids=var_ids.reshape(-1, 3),
        signs=np.fromiter((int(s) for _, s in flat), np.int64, len(flat)).reshape(-1, 3),
        rhs=np.fromiter((int(eq["rhs"]) for eq in eqs), np.int64, len(eqs)),
        weight_class=np.fromiter((weight_class(eq["weight"]) for eq in eqs), np.int64, len(eqs)),
        weights=tuple(classes),
    )
    return LinSystem.from_arrays(template, variables, arrays)


def load_system(path: str, template: Template | None = None):
    """Returns (system, template_ref); resolves the template when not given."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    ref = obj.get("template", "")
    if template is None:
        template = load_template(ref, os.path.dirname(os.path.abspath(path)))
    return obj_to_system(obj, template), ref


# -- families and assignments ------------------------------------------------

def family_to_obj(family: AssignmentFamily) -> dict:
    return {
        "side": "g1" if family.side == 1 else "g2",
        "A": {v: [int(x) for x in tbl] for v, tbl in family.a_tables.items()},
        "B": {u: [int(x) for x in tbl] for u, tbl in family.b_tables.items()},
    }


def obj_to_family(obj: dict) -> AssignmentFamily:
    side = {"g1": 1, "g2": 2, "1": 1, "2": 2}.get(str(obj["side"]).lower())
    if side is None:
        raise InvalidParams(f"unknown family side {obj['side']!r}")
    a_tables = {v: np.array(tbl, dtype=np.int64) for v, tbl in obj["A"].items()}
    b_tables = {u: np.array(tbl, dtype=np.int64) for u, tbl in obj["B"].items()}
    return AssignmentFamily(side, a_tables, b_tables)


def load_family(path: str) -> AssignmentFamily:
    with open(path, encoding="utf-8") as fh:
        return obj_to_family(json.load(fh))


def load_assignment(path: str) -> dict[str, int]:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return {str(k): int(v) for k, v in obj.items()}
