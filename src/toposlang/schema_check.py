"""A JSON Schema check for project files that needs no third-party package.

`SchemaCheck` interprets exactly the Draft 2020-12 keywords that
`schema/project-v1.schema.json` uses: `type`, `properties`, `required`,
`additionalProperties`, `items`, `prefixItems`, `minItems`, `maxItems`,
`minLength`, `pattern`, `enum`, `const`, `oneOf` and `$ref` to
`#/$defs/<name>`.  Any other keyword, type name or `$ref` form raises
`UnsupportedSchema` when the check is built, so the schema cannot outgrow it
silently.

`first_error` reports the error that jsonschema 4.x's
`sorted(Draft202012Validator(schema).iter_errors(doc), key=path)` puts first,
with the same message text: errors are produced in `iter_errors` order (each
schema's keywords in dict order) and the first one at the least instance path
wins.  `tests/test_schema_check.py` holds it to jsonschema itself.
"""
from __future__ import annotations

import re

# Keywords that carry no assertion; `$defs` entries are vetted as schemas.
_INERT = frozenset({"$schema", "title", "$defs"})
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool))
    or (isinstance(x, float) and x.is_integer()),
}


class UnsupportedSchema(ValueError):
    """The schema uses a keyword, type or `$ref` form this check does not know."""


def _equal(a, b) -> bool:
    """JSON equality as jsonschema has it: booleans never equal numbers."""
    if a is b:
        return True
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return len(a) == len(b) and all(k in b and _equal(v, b[k]) for k, v in a.items())
    if isinstance(a, bool) or isinstance(b, bool):
        return False
    return a == b


class SchemaCheck:
    def __init__(self, schema: dict):
        self.root = schema
        self._vet(schema)

    def _vet(self, schema) -> None:
        if not isinstance(schema, dict):
            raise UnsupportedSchema(f"not a schema object: {schema!r}")
        for key, value in schema.items():
            if key == "$defs" or key == "properties":
                subs = value.values()
            elif key in ("items", "additionalProperties"):
                subs = () if value is False and key == "additionalProperties" else (value,)
            elif key in ("prefixItems", "oneOf"):
                subs = value
            elif key == "type":
                subs = ()
                if any(t not in _TYPES for t in ([value] if isinstance(value, str) else value)):
                    raise UnsupportedSchema(f"unsupported type {value!r}")
            elif key == "$ref":
                subs = ()
                if self._resolve(value) is None:
                    raise UnsupportedSchema(f"unsupported $ref {value!r}")
            elif key in _INERT or key in _KEYWORDS:
                subs = ()
            else:
                raise UnsupportedSchema(f"unsupported keyword {key!r}")
            for sub in subs:
                self._vet(sub)

    def _resolve(self, ref):
        prefix = "#/$defs/"
        if not isinstance(ref, str) or not ref.startswith(prefix):
            return None
        return self.root.get("$defs", {}).get(ref[len(prefix):])

    def first_error(self, instance):
        """(instance path, message) of jsonschema's first error, or None."""
        # min keeps the first of equal paths, as a stable sort would.
        return min(self.errors(self.root, instance, ()), key=lambda e: e[0], default=None)

    def errors(self, schema, x, path):
        for key, value in schema.items():
            if key not in _INERT:
                yield from _KEYWORDS[key](self, value, x, path, schema)

    def is_valid(self, schema, x) -> bool:
        return next(self.errors(schema, x, ()), None) is None


def _type(check, names, x, path, schema):
    names = [names] if isinstance(names, str) else names
    if not any(_TYPES[name](x) for name in names):
        yield path, f"{x!r} is not of type {', '.join(map(repr, names))}"


def _properties(check, properties, x, path, schema):
    if isinstance(x, dict):
        for key, sub in properties.items():
            if key in x:
                yield from check.errors(sub, x[key], path + (key,))


def _required(check, keys, x, path, schema):
    if isinstance(x, dict):
        for key in keys:
            if key not in x:
                yield path, f"{key!r} is a required property"


def _additional(check, sub, x, path, schema):
    if not isinstance(x, dict):
        return
    known = schema.get("properties", {})
    extras = [key for key in x if key not in known]
    if sub is False:
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            names = ", ".join(map(repr, sorted(extras)))
            yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
    else:
        for key in extras:
            yield from check.errors(sub, x[key], path + (key,))


def _items(check, sub, x, path, schema):
    if isinstance(x, list):
        for i in range(len(schema.get("prefixItems", ())), len(x)):
            yield from check.errors(sub, x[i], path + (i,))


def _prefix_items(check, subs, x, path, schema):
    if isinstance(x, list):
        for i, (item, sub) in enumerate(zip(x, subs)):
            yield from check.errors(sub, item, path + (i,))


def _min_items(check, n, x, path, schema):
    if isinstance(x, list) and len(x) < n:
        yield path, f"{x!r} {'should be non-empty' if n == 1 else 'is too short'}"


def _max_items(check, n, x, path, schema):
    if isinstance(x, list) and len(x) > n:
        yield path, f"{x!r} {'is expected to be empty' if n == 0 else 'is too long'}"


def _min_length(check, n, x, path, schema):
    if isinstance(x, str) and len(x) < n:
        yield path, f"{x!r} {'should be non-empty' if n == 1 else 'is too short'}"


def _pattern(check, regex, x, path, schema):
    if isinstance(x, str) and not re.search(regex, x):
        yield path, f"{x!r} does not match {regex!r}"


def _enum(check, values, x, path, schema):
    if not any(_equal(value, x) for value in values):
        yield path, f"{x!r} is not one of {values!r}"


def _const(check, value, x, path, schema):
    if not _equal(x, value):
        yield path, f"{value!r} was expected"


def _one_of(check, subs, x, path, schema):
    valid = [sub for sub in subs if check.is_valid(sub, x)]
    if not valid:
        yield path, f"{x!r} is not valid under any of the given schemas"
    elif len(valid) > 1:
        # jsonschema lists the later matches first, then the first match.
        yield path, f"{x!r} is valid under each of {', '.join(map(repr, valid[1:] + valid[:1]))}"


def _ref(check, ref, x, path, schema):
    yield from check.errors(check._resolve(ref), x, path)


_KEYWORDS = {
    "type": _type, "properties": _properties, "required": _required,
    "additionalProperties": _additional, "items": _items, "prefixItems": _prefix_items,
    "minItems": _min_items, "maxItems": _max_items, "minLength": _min_length,
    "pattern": _pattern, "enum": _enum, "const": _const, "oneOf": _one_of, "$ref": _ref,
}
