"""Published JSON schema for the CLI's --json envelope."""

COMMANDS = ["algebra", "nf", "minor", "qcommute", "normal", "weight",
            "cauchon", "theta", "verify", "axioms"]

_CHECK = {
    "type": "object",
    "required": ["name", "ok", "detail", "seconds"],
    "properties": {
        "name": {"type": "string"},
        "ok": {"type": "boolean"},
        "detail": {"type": "string"},
        "seconds": {"type": "number"},
    },
    "additionalProperties": False,
}

# the result of nf, minor and theta: one printed value
_VALUE = {
    "type": "object", "required": ["value"],
    "properties": {"value": {"type": "string"}},
    "additionalProperties": False,
}

_AXIOM_CHECK = {
    "type": "object",
    "required": ["level", "axiom", "ok"],
    "properties": {
        "level": {"type": "integer"},
        "axiom": {"type": "string"},
        "ok": {"type": "boolean"},
        "detail": {"type": "string"},
    },
    "additionalProperties": False,
}


def _when(command, result_schema):
    return {
        "if": {"properties": {"command": {"const": command}}},
        "then": {"properties": {"result": result_schema}},
    }


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
    "allOf": [
        _when("nf", _VALUE),
        _when("minor", _VALUE),
        _when("theta", _VALUE),
        _when("qcommute", {
            "type": "object", "required": ["exponent"],
            "properties": {"exponent": {"type": ["integer", "null"]}},
            "additionalProperties": False,
        }),
        _when("normal", {
            "type": "object", "required": ["normal", "names", "exponents"],
            "properties": {
                "normal": {"type": "boolean"},
                "names": {"type": "array", "items": {"type": "string"}},
                "exponents": {"type": "array", "items": {"type": ["integer", "null"]}},
            },
            "additionalProperties": False,
        }),
        _when("weight", {
            "type": "object", "required": ["homogeneous", "weight"],
            "properties": {
                "homogeneous": {"type": "boolean"},
                "weight": {"type": ["array", "null"], "items": {"type": "integer"}},
            },
            "additionalProperties": False,
        }),
        _when("cauchon", {
            "type": "object", "required": ["m", "n"],
            "properties": {
                "m": {"type": "integer"},
                "n": {"type": "integer"},
                "count": {"type": "integer"},
                "histogram": {"type": "object",
                              "additionalProperties": {"type": "integer"}},
                "diagrams": {"type": "array", "items": {
                    "type": "array", "items": {
                        "type": "array", "items": {"type": "integer"},
                        "minItems": 2, "maxItems": 2}}},
            },
            "additionalProperties": False,
        }),
        _when("axioms", {
            "type": "object", "required": ["ok", "checks"],
            "properties": {
                "ok": {"type": "boolean"},
                "checks": {"type": "array", "items": _AXIOM_CHECK},
            },
            "additionalProperties": False,
        }),
        _when("verify", {
            "type": "object", "required": ["ok", "checks"],
            "properties": {
                "ok": {"type": "boolean"},
                "checks": {"type": "array", "items": _CHECK},
            },
            "additionalProperties": False,
        }),
        _when("algebra", {
            "type": "object", "required": ["spec"],
            "properties": {"spec": {"type": "object"}},
            "additionalProperties": False,
        }),
    ],
}
