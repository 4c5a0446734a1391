"""Model-file I/O and machine-readable output helpers.

A model file is JSON: {"n": int, "A": [[...]], "interaction": {...}} plus an
optional "oracle" object overriding OracleConfig fields. Every other JSON
output is a result passed through ``matrices.plain``: a record prints its
fields in declaration order, None fields left out, and matrices as nested
lists. Floats are printed as Python's repr, the shortest string that reads
back to the same double, so they round-trip exactly: -0.0 stays -0.0 and 1.0
stays a float, 1.0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

from .errors import ParseError, ValidationError
from .interactions import Interaction, interaction_from_dict
from .matrices import SymMatrix, float_array, plain
from .oracle import ENVELOPE_FLOOR, OracleConfig


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


#: OracleConfig fields a model file and the CLI flags set; the duality solver
#: asks for fourth moments.
ORACLE_FIELDS = tuple(f.name for f in fields(OracleConfig) if f.name != "want_fourth_moments")


def _oracle_to_dict(cfg: OracleConfig) -> dict:
    return {name: getattr(cfg, name) for name in ORACLE_FIELDS}


def oracle_from_dict(obj: dict) -> OracleConfig:
    if not isinstance(obj, dict):
        raise ParseError("'oracle' must be a JSON object")
    # files saved while the floor was a field carry it at its one value
    obj = dict(obj)
    floor = obj.pop("envelope_floor", ENVELOPE_FLOOR)
    if floor != ENVELOPE_FLOOR:
        raise ParseError(f"envelope_floor is fixed at {ENVELOPE_FLOOR}, got {floor!r}")
    unknown = set(obj) - set(ORACLE_FIELDS)
    if unknown:
        raise ParseError(f"unknown oracle fields: {sorted(unknown)}")
    return OracleConfig(**obj)


def model_from_dict(obj: dict) -> ModelFile:
    if not isinstance(obj, dict):
        raise ParseError("model file must contain a JSON object")
    for key in ("n", "A", "interaction"):
        if key not in obj:
            raise ParseError(f"model file misses required field {key!r}")
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
        raise ValidationError(f"'n' must be a positive integer, got {n!r}")
    n = int(n)
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


def _read_json(path, what: str):
    """Parsed JSON of a file; unreadable files and malformed JSON are ParseErrors."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ParseError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # the former names line and column
        raise ParseError(f"invalid JSON in {path}: {exc}") from None


def load_model(path) -> ModelFile:
    """Load and fully validate a model file.

    Raises ParseError on an unreadable file or malformed JSON and
    ValidationError naming the violated invariant otherwise.
    """
    return model_from_dict(_read_json(path, "model file"))


def save_model(model: ModelFile, path) -> None:
    with open(path, "w") as handle:
        handle.write(dumps(model.to_dict()))
        handle.write("\n")


def load_matrix(path) -> np.ndarray:
    """Load a bare matrix file: either [[...]] or {"G": [[...]]} / {"matrix": ...}."""
    obj = _read_json(path, "matrix file")
    if isinstance(obj, dict):
        for key in ("G", "matrix", "A"):
            if key in obj:
                obj = obj[key]
                break
        else:
            raise ParseError(f"matrix file {path} has no 'G', 'A' or 'matrix' field")
    arr = float_array(obj, f"matrix file {path}")
    if arr.ndim != 2:
        raise ParseError(f"matrix file {path} does not hold a 2-d array")
    return arr


def dumps(obj) -> str:
    """Serialize plain(obj) to indented JSON; floats print as their repr, which reads back exactly."""
    return json.dumps(plain(obj), indent=2)


def write_csv(path_or_handle, header, rows) -> None:
    """Delimited table; csv prints floats by repr, like dumps."""
    import csv

    def emit(handle):
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)

    if hasattr(path_or_handle, "write"):
        emit(path_or_handle)
    else:
        with open(path_or_handle, "w", newline="") as handle:
            emit(handle)
