"""JSON wire formats shared across the workbench.

Matrix:        {"dim": n, "entries": [[re, im], ...]}   row-major, length n*n
Triple:        {"h": Matrix, "x": Matrix, "k": Matrix}

Writers emit exactly these shapes.  Readers reject ragged, non-finite, or
mis-sized data with :class:`FormatError`.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

__all__ = [
    "FormatError",
    "matrix_to_obj",
    "matrix_from_obj",
    "triple_to_obj",
    "triple_from_obj",
    "env_from_obj",
    "load_json",
    "dump_json",
]


class FormatError(ValueError):
    """Raised when serialized data does not match the wire format."""


def matrix_to_obj(m: np.ndarray) -> dict:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise FormatError(f"only square matrices serialize, got shape {a.shape}")
    flat = a.reshape(-1)
    return {
        "dim": int(a.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }


def matrix_from_obj(obj: Any) -> np.ndarray:
    if not isinstance(obj, dict):
        raise FormatError("matrix object must be a JSON object")
    try:
        dim = obj["dim"]
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise FormatError("matrix object needs 'dim' and 'entries'") from exc
    if not isinstance(dim, int) or dim <= 0:
        raise FormatError(f"'dim' must be a positive integer, got {dim!r}")
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise FormatError(f"'entries' must hold {dim * dim} pairs")
    out = np.empty(dim * dim, dtype=complex)
    for i, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise FormatError(f"entry {i} is not an [re, im] pair")
        re, im = pair
        if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
            raise FormatError(f"entry {i} holds non-numeric data")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise FormatError(f"entry {i} is not finite")
        out[i] = complex(re, im)
    return out.reshape(dim, dim)


def triple_to_obj(h: np.ndarray, x: np.ndarray, k: np.ndarray) -> dict:
    return {"h": matrix_to_obj(h), "x": matrix_to_obj(x), "k": matrix_to_obj(k)}


def triple_from_obj(obj: Any) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not isinstance(obj, dict):
        raise FormatError("triple object must be a JSON object")
    missing = {"h", "x", "k"} - set(obj)
    if missing:
        raise FormatError(f"triple object missing keys {sorted(missing)}")
    h = matrix_from_obj(obj["h"])
    x = matrix_from_obj(obj["x"])
    k = matrix_from_obj(obj["k"])
    if not (h.shape == x.shape == k.shape):
        raise FormatError("triple components must share one dimension")
    return h, x, k


def env_from_obj(obj: Any) -> dict[str, np.ndarray]:
    """Read a name -> Matrix map (the evaluation environment format)."""
    if not isinstance(obj, dict):
        raise FormatError("environment must be a JSON object of name -> matrix")
    return {str(name): matrix_from_obj(val) for name, val in obj.items()}


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read JSON from {path}: {exc}") from exc


def dump_json(obj: Any, path: str | None) -> str:
    """Serialize deterministically (sorted keys); write to path when given."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
