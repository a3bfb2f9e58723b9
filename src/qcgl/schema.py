"""Published JSON schema for the CLI's --json envelope.

_RESULTS maps each command, in the parser's order, to the schema of its
result; the envelope's command list and its per-command rules are read from it.
"""


def _object(properties, required=None):
    """A closed object: no property outside `properties`, and every one of them
    required unless `required` names fewer."""
    return {"type": "object",
            "required": list(properties if required is None else required),
            "properties": properties, "additionalProperties": False}


# the result of nf, minor and theta: one printed value
_VALUE = _object({"value": {"type": "string"}})


# the result of verify and axioms: the verdict and the checks behind it
def _checks(check):
    return _object({"ok": {"type": "boolean"},
                    "checks": {"type": "array", "items": check}})


_RESULTS = {
    "algebra": _object({"spec": {"type": "object"}}),
    "nf": _VALUE,
    "minor": _VALUE,
    "qcommute": _object({"exponent": {"type": ["integer", "null"]}}),
    "normal": _object({
        "normal": {"type": "boolean"},
        "names": {"type": "array", "items": {"type": "string"}},
        "exponents": {"type": "array", "items": {"type": ["integer", "null"]}},
    }),
    "weight": _object({
        "homogeneous": {"type": "boolean"},
        "weight": {"type": ["array", "null"], "items": {"type": "integer"}},
    }),
    "cauchon": _object({
        "m": {"type": "integer"},
        "n": {"type": "integer"},
        "count": {"type": "integer"},
        "histogram": {"type": "object", "additionalProperties": {"type": "integer"}},
        "diagrams": {"type": "array", "items": {"type": "array", "items": {
            "type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2}}},
    }, required=["m", "n"]),  # and the one field its action computes
    "theta": _VALUE,
    "verify": _checks(_object({"name": {"type": "string"}, "ok": {"type": "boolean"},
                               "detail": {"type": "string"},
                               "seconds": {"type": "number"}})),
    "axioms": _checks(_object({"level": {"type": "integer"}, "axiom": {"type": "string"},
                               "ok": {"type": "boolean"}, "detail": {"type": "string"}},
                              required=["level", "axiom", "ok"])),
}

COMMANDS = list(_RESULTS)

OUTPUT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "qcgl CLI JSON envelope",
    "type": "object",
    "required": ["command", "ok", "result"],
    "additionalProperties": False,
    "properties": {
        "command": {"enum": COMMANDS},
        "ok": {"type": "boolean"},
        "algebra": {"type": ["string", "null"]},
        "result": {"type": "object"},
    },
    "allOf": [{"if": {"properties": {"command": {"const": command}}},
               "then": {"properties": {"result": result}}}
              for command, result in _RESULTS.items()],
}
