"""Dependency-free validation against a JSON Schema subset.

The exporter's output contract is pinned by a checked-in schema
(``schemas/chrome_trace.schema.json``); CI validates every smoke-run trace
against it.  Rather than depending on the ``jsonschema`` package, this
module interprets the subset of draft-07 the checked-in schemas actually
use:

``type`` (including lists), ``properties``, ``required``, ``items``,
``enum``, ``minimum``, ``maximum``, ``minItems``, ``additionalProperties``
(boolean form).

Unknown keywords are ignored — exactly like a full validator would ignore
annotations — so the schema file remains valid input for standard tooling.
"""

from __future__ import annotations

from typing import Any


class SchemaError(ValueError):
    """Raised by :func:`check` when an instance violates the schema."""

    def __init__(self, errors: list[str]) -> None:
        super().__init__("; ".join(errors[:10]))
        self.errors = errors


_TYPES: dict[str, tuple[type, ...]] = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "number": (int, float),
    "integer": (int,),
    "boolean": (bool,),
    "null": (type(None),),
}


def _type_ok(value: Any, name: str) -> bool:
    kinds = _TYPES.get(name)
    if kinds is None:
        return True  # unknown type name: be permissive like unknown keywords
    if name in ("number", "integer") and isinstance(value, bool):
        return False  # bool is an int subclass but not a JSON number
    if name == "integer":
        return isinstance(value, int) or (
            isinstance(value, float) and value.is_integer()
        )
    return isinstance(value, kinds)


def validate(instance: Any, schema: dict[str, Any], path: str = "$") -> list[str]:
    """Collect every violation of ``schema`` by ``instance`` (empty = valid)."""
    errors: list[str] = []

    expected = schema.get("type")
    if expected is not None:
        names = expected if isinstance(expected, list) else [expected]
        if not any(_type_ok(instance, n) for n in names):
            errors.append(
                f"{path}: expected type {'/'.join(names)}, "
                f"got {type(instance).__name__}"
            )
            return errors  # structural checks below would only cascade

    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in enum {schema['enum']!r}")

    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        if "minimum" in schema and instance < schema["minimum"]:
            errors.append(f"{path}: {instance} < minimum {schema['minimum']}")
        if "maximum" in schema and instance > schema["maximum"]:
            errors.append(f"{path}: {instance} > maximum {schema['maximum']}")

    if isinstance(instance, dict):
        for name in schema.get("required", []):
            if name not in instance:
                errors.append(f"{path}: missing required property {name!r}")
        props = schema.get("properties", {})
        for name, sub in props.items():
            if name in instance:
                errors.extend(validate(instance[name], sub, f"{path}.{name}"))
        if schema.get("additionalProperties") is False:
            for name in instance:
                if name not in props:
                    errors.append(f"{path}: unexpected property {name!r}")

    if isinstance(instance, list):
        if "minItems" in schema and len(instance) < schema["minItems"]:
            errors.append(
                f"{path}: {len(instance)} items < minItems {schema['minItems']}"
            )
        items = schema.get("items")
        if isinstance(items, dict):
            for i, element in enumerate(instance):
                errors.extend(validate(element, items, f"{path}[{i}]"))

    return errors


def check(instance: Any, schema: dict[str, Any]) -> None:
    """Raise :class:`SchemaError` if ``instance`` violates ``schema``."""
    errors = validate(instance, schema)
    if errors:
        raise SchemaError(errors)
