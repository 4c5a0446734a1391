"""Model-file I/O and machine-readable output helpers.

A model file is JSON: {"n": int, "A": [[...]], "interaction": {...}} plus an
optional "oracle" object overriding OracleConfig fields. All numeric output
is printed with 17 significant digits so doubles round-trip losslessly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ParseError, ValidationError
from .interactions import Interaction, interaction_from_dict
from .matrices import SymMatrix
from .oracle import OracleConfig


@dataclass(frozen=True)
class ModelFile:
    """One problem instance: quadratic part, interaction, oracle overrides."""

    n: int
    a: SymMatrix
    interaction: Interaction
    oracle: OracleConfig

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "A": self.a.mat.tolist(),
            "interaction": self.interaction.to_dict(),
            "oracle": _oracle_to_dict(self.oracle),
        }


_ORACLE_FIELDS = tuple(f.name for f in fields(OracleConfig))


def _oracle_to_dict(cfg: OracleConfig) -> dict:
    return {name: getattr(cfg, name) for name in _ORACLE_FIELDS}


def oracle_from_dict(obj: dict, base: OracleConfig | None = None) -> OracleConfig:
    base = base or OracleConfig()
    unknown = set(obj) - set(_ORACLE_FIELDS)
    if unknown:
        raise ParseError(f"unknown oracle fields: {sorted(unknown)}")
    return replace(base, **obj)


def model_from_dict(obj: dict) -> ModelFile:
    if not isinstance(obj, dict):
        raise ParseError("model file must contain a JSON object")
    for key in ("n", "A", "interaction"):
        if key not in obj:
            raise ParseError(f"model file misses required field {key!r}")
    n = obj["n"]
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"'n' must be a positive integer, got {n!r}")
    a = SymMatrix(obj["A"])
    if a.n != n:
        raise ValidationError(f"A has dimension {a.n}, expected n = {n}")
    interaction = interaction_from_dict(obj["interaction"], n)
    if interaction.n != n:
        raise ValidationError(
            f"interaction has dimension {interaction.n}, expected n = {n}"
        )
    oracle = oracle_from_dict(obj.get("oracle", {}))
    return ModelFile(n=n, a=a, interaction=interaction, oracle=oracle)


def load_model(path) -> ModelFile:
    """Load and fully validate a model file.

    Raises ParseError with line/column diagnostics on malformed JSON and
    ValidationError naming the violated invariant otherwise.
    """
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except FileNotFoundError:
        raise ParseError(f"model file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON in {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None
    return model_from_dict(obj)


def save_model(model: ModelFile, path) -> None:
    with open(path, "w") as handle:
        handle.write(dumps(model.to_dict()))
        handle.write("\n")


def load_matrix(path) -> np.ndarray:
    """Load a bare matrix file: either [[...]] or {"G": [[...]]} / {"matrix": ...}."""
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except FileNotFoundError:
        raise ParseError(f"matrix file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON in {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None
    if isinstance(obj, dict):
        for key in ("G", "matrix", "A"):
            if key in obj:
                obj = obj[key]
                break
        else:
            raise ParseError(f"matrix file {path} has no 'G', 'A' or 'matrix' field")
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise ParseError(f"matrix file {path} does not hold an array of numbers") from None
    if arr.ndim != 2:
        raise ParseError(f"matrix file {path} does not hold a 2-d array")
    return arr


def _format_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "Infinity" if value > 0 else "-Infinity"
    return format(value, ".17g")


class _SignificantDigitsEncoder(json.JSONEncoder):
    """JSON encoder printing floats with 17 significant digits."""

    def iterencode(self, o, _one_shot=False):
        # bypass the C encoder so the float formatter applies
        markers = {} if self.check_circular else None
        encoder = (
            json.encoder.encode_basestring_ascii
            if self.ensure_ascii
            else json.encoder.encode_basestring
        )
        chunks = json.encoder._make_iterencode(
            markers,
            self.default,
            encoder,
            self.indent,
            _format_float,
            self.key_separator,
            self.item_separator,
            self.sort_keys,
            self.skipkeys,
            False,
        )
        return chunks(o, 0)

    def default(self, o):
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, np.bool_):
            return bool(o)
        return super().default(o)


def dumps(obj) -> str:
    """Serialize to JSON with lossless float formatting."""
    return json.dumps(obj, cls=_SignificantDigitsEncoder, indent=2)


def write_csv(path_or_handle, header, rows) -> None:
    """Delimited table with the same 17-significant-digit float format."""
    import csv

    def emit(handle):
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [_format_float(v) if isinstance(v, float) else v for v in row]
            )

    if hasattr(path_or_handle, "write"):
        emit(path_or_handle)
    else:
        with open(path_or_handle, "w", newline="") as handle:
            emit(handle)
