"""File formats: groups, homomorphisms, templates, Label Cover instances,
equation systems, families, and assignments.

All rationals serialize as lowest-terms "p/q" strings; canonical form sorts
keys so that parse-then-serialize is byte-identical.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from io import StringIO
from types import MappingProxyType

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


# Digits per piece where an integer is too long for ``str`` (``_int_str``):
# under the least limit ``sys.set_int_max_str_digits`` accepts, 640.
_PIECE_DIGITS = 500
_PIECE = 10**_PIECE_DIGITS


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


def _int_str(n: int) -> str:
    """The decimal digits of ``n``. Past the interpreter's limit on
    int-to-str conversion (``sys.get_int_max_str_digits``), which stays as
    it is for other code, they are written ``_PIECE_DIGITS`` at a time: an
    exact value such as alpha at eps = 1/4001 has a denominator of 28,696
    bits."""
    try:
        return str(n)
    except ValueError:
        pass
    head, pieces = abs(n), []
    while head >= _PIECE:
        head, low = divmod(head, _PIECE)
        pieces.append(f"{low:0{_PIECE_DIGITS}d}")
    return "-" * (n < 0) + str(head) + "".join(reversed(pieces))


def parse_frac(s) -> Fraction:
    """A rational from "p/q" or an integer. Integers keep the interpreter's
    limit on their digits (``sys.get_int_max_str_digits``): a longer one is
    refused, naming the limit."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    text = str(s).strip().lower()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        limit = sys.get_int_max_str_digits()
        digits = max(sum(ch.isdigit() for ch in part) for part in text.split("/"))
        if limit and digits > limit:
            raise InvalidParams(
                f"an integer of {digits} digits in {_shorten(repr(s))} is over the limit of"
                f" {limit} digits for integer strings"
            ) from exc
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
    if isinstance(x, (dict, MappingProxyType)):  # read-only maps, such as a kept decode's
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


def _object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise InvalidParams(f"{what} must be a JSON object, not {type(obj).__name__}")
    return obj


def _list(obj: dict, key: str) -> list:
    value = obj.get(key)
    if not isinstance(value, list):
        raise InvalidParams(f'"{key}" must be a JSON list, not {type(value).__name__}')
    return value


def _string(obj: dict, key: str, default: str | None = None) -> str:
    value = obj.get(key, default)
    if not isinstance(value, str):
        raise InvalidParams(f'"{key}" must be a JSON string, not {type(value).__name__}')
    return value


def _integers(values: list, what: str) -> np.ndarray:
    """JSON integers as int64; a bool, a float or a number past int64 is
    refused rather than truncated."""
    if not all(type(v) is int for v in values):
        bad = next(v for v in values if type(v) is not int)
        raise InvalidParams(f"{what} must be an integer, got {_shorten(json.dumps(bad))}")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise InvalidParams(f"{what} {_shorten(str(max(values, key=abs)))} is out of range") from None


def _shorten(text: str, limit: int = 60) -> str:
    """``text`` cut to ``limit`` characters, so a message stays one short line."""
    return text if len(text) <= limit else text[: limit - 3] + "..."


# -- groups -----------------------------------------------------------------

def group_to_obj(g: FiniteGroup) -> dict:
    return {
        "name": g.name,
        "elements": list(g.elements),
        "table": [list(row) for row in g.table],
    }


def obj_to_group(obj) -> FiniteGroup:
    obj = _object(obj, "a group")
    rows = _list(obj, "table")
    if not all(type(row) is list for row in rows):
        raise InvalidParams('"table" must be a list of rows')
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise InvalidParams(f'"table" row {i} has {len(row)} entries, where row 0 has {len(rows[0])}')
    table = [_integers(row, "a table entry") for row in rows]
    return make_group(_list(obj, "elements"), table, _string(obj, "name", "group"))


def _resolve_ref(ref: str, base_dir: str) -> str:
    if os.path.isabs(ref):
        return ref
    return os.path.join(base_dir, ref)


def _load(ref: str, base_dir: str, lookup, from_obj):
    """``lookup(name)`` for a catalog name or a ``catalog:`` ref, where an
    unknown ``catalog:`` name raises KeyError; otherwise ``from_obj(obj,
    file_dir)`` of the JSON file at ``ref``, relative to ``base_dir``."""
    if ref.startswith("catalog:"):
        return lookup(ref.split(":", 1)[1])
    try:
        return lookup(ref)
    except KeyError:
        pass
    path = _resolve_ref(ref, base_dir)
    with open(path, encoding="utf-8") as fh:
        return from_obj(json.load(fh), os.path.dirname(os.path.abspath(path)))


def load_group(ref: str, base_dir: str = ".") -> FiniteGroup:
    """A group from a catalog name, a ``catalog:`` ref, or a JSON file."""
    return _load(ref, base_dir, catalog.group, lambda obj, _: obj_to_group(obj))


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


def obj_to_template(obj, base_dir: str = ".") -> Template:
    obj = _object(obj, "a template")
    g1 = load_group(_string(obj, "g1"), base_dir)
    g2 = load_group(_string(obj, "g2"), base_dir)
    hom_obj = obj.get("homomorphism")
    if isinstance(hom_obj, str):
        with open(_resolve_ref(hom_obj, base_dir), encoding="utf-8") as fh:
            hom_obj = json.load(fh)
    hom_obj = _object(hom_obj, '"homomorphism"')
    domain = _integers(_list(hom_obj, "domain"), "a domain element").tolist()
    map_obj = _object(hom_obj.get("map"), '"map"')
    images = _integers(list(map_obj.values()), "a map value").tolist()
    mapping = dict(zip(map(int, map_obj), images))
    if sorted(domain) == list(range(len(g1))):
        dom = full_subgroup(g1)
    else:
        dom = subgroup(g1, domain)
    phi = make_homomorphism(dom, g2, mapping)
    return validate_template(g1, g2, phi, _string(obj, "name", "template"))


def load_template(ref: str, base_dir: str = ".") -> Template:
    return _load(ref, base_dir, catalog.template, obj_to_template)


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


def obj_to_lc(obj) -> LabelCoverInstance:
    obj = _object(obj, "a Label Cover instance")
    edges = [_object(e, "an edge") for e in _list(obj, "edges")]
    return make_label_cover(
        _list(obj, "D"),
        _list(obj, "E"),
        _list(obj, "U"),
        _list(obj, "V"),
        [(e["u"], e["v"], _object(e.get("pi"), '"pi"')) for e in edges],
    )


def load_lc(ref: str, base_dir: str = ".") -> LabelCoverInstance:
    return _load(ref, base_dir, catalog.label_cover, lambda obj, _: obj_to_lc(obj))


# -- systems ----------------------------------------------------------------

def system_to_obj(system: LinSystem, template_ref: str) -> dict:
    """The system's JSON object: what ``write_system`` writes, read back."""
    out = StringIO()
    write_system(system, template_ref, out)
    return json.loads(out.getvalue())


WRITE_CHUNK = 4096  # equations rendered per write: ~1 MB of text


def write_system(system: LinSystem, template_ref: str, out) -> None:
    """Write the system as canonical JSON (the layout ``canonical_dumps``
    gives its object) to the text stream ``out``, straight from the arrays.

    An equation is seven fragments: a head per rhs value, a term per
    (variable, sign) with a separator after each of the first two, and a
    tail per weight class. The three fragment tables are rendered once,
    each name and weight JSON-escaped once, so they grow with the variables
    and weight classes, not with the equations. A chunk of ``WRITE_CHUNK``
    equations picks its fragments by numpy indexing into those tables and
    is written with one join, so neither the per-equation objects nor the
    whole text are ever built. A valid system has an equation and a
    variable (its weights sum to 1), so neither list is empty."""
    enc = system.arrays
    names = [json.dumps(v) for v in system.variables]
    # A head opens with the comma that ends the equation before it; the
    # file's first equation drops it.
    heads = np.array(
        [',\n    {\n      "rhs": %d,\n      "terms": [\n        ' % h for h in range(len(system.template.g1))],
        dtype=object,
    )
    # term 2k is variable k with sign 1, term 2k + 1 is variable k with sign -1
    terms = np.array(
        ["[\n          %s,\n          %d\n        ]" % (name, sign) for name in names for sign in (1, -1)],
        dtype=object,
    )
    tails = np.array(
        ['\n      ],\n      "weight": %s\n    }' % json.dumps(frac_str(w)) for w in enc.weights],
        dtype=object,
    )
    out.write('{\n  "equations": [\n')
    for lo in range(0, len(enc), WRITE_CHUNK):
        sl = slice(lo, lo + WRITE_CHUNK)
        term_ids = enc.var_ids[sl] * 2 + (enc.signs[sl] < 0)
        cells = np.empty((len(term_ids), 7), dtype=object)
        cells[:, 0] = heads[enc.rhs[sl]]
        cells[:, 1::2] = terms[term_ids]
        cells[:, 2:5:2] = ",\n        "  # between two terms
        cells[:, 6] = tails[enc.weight_class[sl]]
        if not lo:
            cells[0, 0] = cells[0, 0][2:]
        out.write("".join(cells.ravel().tolist()))
    out.write(
        '\n  ],\n  "template": '
        + json.dumps(template_ref)
        + ',\n  "variables": [\n    '
        + ",\n    ".join(names)
        + "\n  ]\n}\n"
    )


class _Row:
    """The value an equation object parses to once it is packed: no JSON
    value is this object, so a scalar cannot stand in for an equation."""

    __slots__ = ()


_ROW = _Row()


_FIELDS = 8  # per packed equation: 3 variable ids, 3 signs, rhs, weight class


class _Packer:
    """Packs equation objects into one flat list of integers as they are
    parsed. As the ``object_hook`` of ``json.load`` it sees every object's
    dict the moment the scanner closes it: an object with "rhs", "terms" and
    "weight" is packed as ``_FIELDS`` values and replaced by ``_ROW``, so its
    dict, term lists and name strings are freed straight away; any other
    object stays a dict.

    Variables get provisional ids in order of first use, remapped to the
    file's ``variables`` list at the end (sorted keys put it after
    ``equations``). Each distinct weight text is parsed once; equal values
    share a class, in order of first occurrence. Signs and rhs are packed as
    the file has them and checked once all are packed."""

    def __init__(self):
        self.ids: dict[str, int] = {}
        self.flat: list = []
        self.by_text: dict[str, int] = {}
        self.classes: dict[Fraction, int] = {}

    def __call__(self, obj: dict):
        try:
            rhs, terms, weight = obj["rhs"], obj["terms"], obj["weight"]
        except KeyError:
            return obj
        if type(terms) is not list or len(terms) != 3:
            raise InvalidParams("an equation has exactly three terms")
        a, b, c = terms
        if not (type(a) is list and type(b) is list and type(c) is list and len(a) == len(b) == len(c) == 2):
            raise InvalidParams("a term is a [variable, sign] pair")
        text = str(weight)
        cls = self.by_text.get(text)
        if cls is None:
            cls = self.by_text[text] = self.classes.setdefault(parse_frac(weight), len(self.classes))
        ids = self.ids
        self.flat += (
            ids.setdefault(str(a[0]), len(ids)),
            ids.setdefault(str(b[0]), len(ids)),
            ids.setdefault(str(c[0]), len(ids)),
            a[1],
            b[1],
            c[1],
            rhs,
            cls,
        )
        return _ROW

    def system(self, obj, template: Template) -> LinSystem:
        """The system whose ``equations`` are exactly the rows packed so
        far, in order; the system validates the encoding."""
        variables = tuple(str(v) for v in _list(obj, "variables"))
        eqs = _list(obj, "equations")
        if not all(eq is _ROW for eq in eqs):
            raise InvalidParams('an equation is an object with "terms", "rhs" and "weight"')
        flat = self.flat
        if len(eqs) * _FIELDS != len(flat):
            raise InvalidParams('an object with "terms", "rhs" and "weight" lies outside "equations"')
        index = {v: k for k, v in enumerate(variables)}
        try:
            remap = np.fromiter((index[v] for v in self.ids), np.int64, len(self.ids))
        except KeyError as exc:
            raise InvalidParams(f"equation uses unknown variable {exc.args[0]}") from None
        # the packed values as they came, one row per equation (fromiter
        # keeps a JSON list that stands as a sign one value)
        rows = np.fromiter(flat, dtype=object, count=len(flat)).reshape(-1, _FIELDS)
        arrays = SystemArrays(
            var_ids=remap[rows[:, :3].astype(np.int64)],
            signs=_integers(rows[:, 3:6].ravel().tolist(), "a sign").reshape(-1, 3),
            rhs=_integers(rows[:, 6].tolist(), "rhs"),
            weight_class=rows[:, 7].astype(np.int64),
            weights=tuple(self.classes),
        )
        return LinSystem.from_arrays(template, variables, arrays)


def load_system(path: str, template: Template | None = None):
    """Returns (system, template_ref); resolves the template when not given.
    Each equation is packed into one flat list of integers as soon as it is
    parsed, so the file's equation objects are never all held at once."""
    packer = _Packer()
    with open(path, encoding="utf-8") as fh:
        obj = _object(json.load(fh, object_hook=packer), "a system file")
    ref = obj.get("template", "")
    if not isinstance(ref, str):
        raise InvalidParams(f'"template" must be a string, not {type(ref).__name__}')
    if template is None:
        template = load_template(ref, os.path.dirname(os.path.abspath(path)))
    return packer.system(obj, template), ref


# -- families and assignments ------------------------------------------------

def family_to_obj(family: AssignmentFamily) -> dict:
    return {
        "side": "g1" if family.side == 1 else "g2",
        "A": {v: tbl.tolist() for v, tbl in family.a_tables.items()},
        "B": {u: tbl.tolist() for u, tbl in family.b_tables.items()},
    }


def obj_to_family(obj) -> AssignmentFamily:
    obj = _object(obj, "a family")
    side = {"g1": 1, "g2": 2, "1": 1, "2": 2}.get(str(obj.get("side")).lower())
    if side is None:
        raise InvalidParams(f"unknown family side {obj.get('side')!r}")
    return AssignmentFamily(side, _tables(obj, "A"), _tables(obj, "B"))


def _tables(obj: dict, key: str) -> dict:
    tables = _object(obj.get(key), f'"{key}"')
    return {name: _integers(_list(tables, name), f"a {key} table value") for name in tables}


def load_family(path: str) -> AssignmentFamily:
    with open(path, encoding="utf-8") as fh:
        return obj_to_family(json.load(fh))


def load_assignment(path: str) -> dict[str, int]:
    with open(path, encoding="utf-8") as fh:
        obj = _object(json.load(fh), "an assignment file")
    return dict(zip(obj, _integers(list(obj.values()), "a value").tolist()))
