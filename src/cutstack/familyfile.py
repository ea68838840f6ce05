"""Family files, reports, and CSV output.

Family files are UTF-8 JSON with a ``kind`` tag ("afs4" or "vl") and the
rule fields of the corresponding family; synthesized families embed their
direction sets and trace. Values that can exceed doubles are serialized as
decimal strings. Reports are deterministic line-oriented key=value text with
a final ``RESULT=`` line; exact rationals are never rounded.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from . import vl as vlmod
from .afs4 import AfsParams, rule_from_json
from .errors import CutstackError, SchemaError
from .measure import format_rational, parse_int, parse_reduced_unit_fraction
from .synthesis import DirectionSpec, SynthesizedParams
from .tower import Family

FORMAT_VERSION = 1


def family_to_json(family: Family) -> dict:
    doc = family.descriptor()
    if isinstance(family, SynthesizedParams):
        doc = dict(doc)
        doc["trace"] = [row.to_json() for row in family.trace.rows]
    return doc


_REQUIRED = object()


def _field(doc: dict, key: str, parse, default=_REQUIRED, where: str = ""):
    """Parse ``doc[key]``; a missing key or malformed value is a SchemaError naming it.

    An absent or null key gives ``default``, or an error when there is none.
    """
    name = where + key
    value = doc.get(key)
    if value is None:
        if default is _REQUIRED:
            raise SchemaError(f"missing field {name!r}")
        return default
    try:
        return parse(value)
    except KeyError as exc:
        raise SchemaError(f"field {name!r}: missing key {exc.args[0]!r}") from exc
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise SchemaError(f"field {name!r}: {exc}") from exc


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    return value


def _ratios(items) -> tuple[Fraction, ...]:
    if not isinstance(items, list):
        raise TypeError(f"expected a list of p/q strings, got {type(items).__name__}")
    return tuple(parse_reduced_unit_fraction(s) for s in items)


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a JSON string, got {value!r}")
    return value


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def family_from_json(doc: dict) -> Family:
    if not isinstance(doc, dict):
        raise SchemaError("family file must be a JSON object")
    version = _field(doc, "format_version", parse_int)
    if version != FORMAT_VERSION:
        raise SchemaError(f"unsupported format_version {version!r}")
    kind = doc.get("kind")
    if kind == "afs4":
        if "synthesis" in doc:
            syn = _field(doc, "synthesis", _object)
            spec = DirectionSpec(
                ratios=_field(syn, "ratios", _ratios, where="synthesis."),
                complement=_field(syn, "complement", _ratios, (), "synthesis."),
                ergodic_subset=_field(syn, "ergodic_subset", _ratios, None, "synthesis."),
                complement_complete=_field(syn, "complement_complete", _boolean, False,
                                           "synthesis."),
            )
            return SynthesizedParams(spec, _field(syn, "mode", str, where="synthesis."))
        rules = doc.get("rules")
        if not isinstance(rules, dict) or set(rules) != {"a", "b", "c", "d"}:
            raise SchemaError("afs4 family needs rules for a, b, c, d")
        return AfsParams(
            *(_field(rules, k, lambda v: rule_from_json(_object(v)), where="rules.")
              for k in "abcd"),
            label=_field(doc, "label", _string, "afs4"),
        )
    if kind == "vl":
        spec = vlmod.VlSpec(
            L=_field(doc, "L", parse_int),
            r=_field(doc, "r", lambda v: vlmod.r_rule_from_json(_object(v))),
            vector_order=_field(doc, "vector_order",
                                lambda vs: tuple(tuple(map(parse_int, v)) for v in vs), None),
            horizon=_field(doc, "horizon", parse_int, None),
            label=_field(doc, "label", _string, "vl"),
        )
        return vlmod.VlFamily(spec)
    raise SchemaError(f"unknown family kind {kind!r}")


def load_family(path: str | Path) -> Family:
    text = Path(path).read_text(encoding="utf-8")
    if not text.strip():
        raise SchemaError(f"{path}: empty family file")
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses per level
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    return family_from_json(doc)


def save_family(family: Family, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(family_to_json(family), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


# ---------------------------------------------------------------------------
# Reports


class Report:
    """Deterministic key=value report; identical inputs give identical bytes."""

    def __init__(self, command: str, family: Family | None = None):
        self.lines: list[str] = [f"# cutstack-report v{FORMAT_VERSION} command={command}"]
        if family is not None:
            self.add("family.kind", family.kind)
            self.add("family.digest", family.digest())

    def add(self, key: str, value) -> None:
        if isinstance(value, Fraction):
            value = format_rational(value)
        try:
            self.lines.append(f"{key}={value}")
        except ValueError:  # str() refuses an integer past the interpreter's digit limit
            raise CutstackError(f"report value {key} holds an integer of more than "
                                f"{sys.get_int_max_str_digits()} digits, too long to "
                                "print") from None

    def finish(self, result: str) -> str:
        return "\n".join(self.lines + [f"RESULT={result}"]) + "\n"


def csv_text(header: list[str], rows: list[str]) -> str:
    """The CSV text of a header and one preformatted line per row."""
    return "\n".join([",".join(header), *rows]) + "\n"
