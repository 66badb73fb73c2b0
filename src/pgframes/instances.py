"""Problem instances and their JSON wire format.

An instance bundles the two coordinate spaces, the component spaces, both
operator families, the symbol and the aggregation exponent.  Matrices are
stored row-major as arrays of arrays of decimal floats; Python's JSON float
formatting round-trips IEEE doubles exactly, so parse(serialize(x)) == x bit
for bit.  Infinite exponents are spelled "inf".  A document carries
``"version": "1"``, and parse rejects any other version.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .multipliers import Symbol
from .operators import OperatorSequence
from .spaces import SpaceSpec, conjugate_exponent

__all__ = ["Instance", "InstanceFormatError", "serialize", "parse", "load", "save"]

FORMAT_VERSION = "1"


class InstanceFormatError(ValueError):
    """The instance document is malformed; the message names the field."""


@dataclass(frozen=True)
class Instance:
    x1: SpaceSpec
    x2: SpaceSpec
    components: tuple[SpaceSpec, ...]
    frame_exponent: float
    lam: tuple[np.ndarray, ...]
    theta: tuple[np.ndarray, ...]
    symbol: np.ndarray
    p1: float | None = None
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(
            self, "lam", tuple(np.asarray(m, dtype=float) for m in self.lam)
        )
        object.__setattr__(
            self, "theta", tuple(np.asarray(m, dtype=float) for m in self.theta)
        )
        object.__setattr__(self, "symbol", np.asarray(self.symbol, dtype=float).ravel())
        self.lam_sequence()
        self.theta_sequence()
        if len(self.symbol) != len(self.components):
            raise InstanceFormatError(
                f"symbol length {len(self.symbol)} != component count {len(self.components)}"
            )

    def lam_sequence(self) -> OperatorSequence:
        """The left family, acting on x2 with the instance's frame exponent."""
        return OperatorSequence(
            self.x2, self.components, self.lam, self.frame_exponent
        )

    def theta_sequence(self) -> OperatorSequence:
        """The right family, acting on the dual of x1 with the conjugate exponent."""
        return OperatorSequence(
            self.x1.dual,
            tuple(c.dual for c in self.components),
            self.theta,
            conjugate_exponent(self.frame_exponent),
        )

    def symbol_obj(self) -> Symbol:
        return Symbol(self.symbol)


def _enc_exponent(p: float):
    return "inf" if math.isinf(p) else float(p)


_NUMBER_TYPES = frozenset((int, float))


def _is_number(raw) -> bool:
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _dec_exponent(raw, field: str) -> float:
    if raw == "inf":
        return math.inf
    if _is_number(raw):
        return float(raw)
    raise InstanceFormatError(f"{field}: exponent must be a number or 'inf', got {raw!r}")


def _is_int(raw) -> bool:
    return isinstance(raw, int) and not isinstance(raw, bool)


def _dec_seed(raw) -> int:
    if _is_int(raw):
        return raw
    raise InstanceFormatError(f"seed: expected an integer, got {raw!r}")


def _dec_symbol(raw) -> np.ndarray:
    if not isinstance(raw, list) or not all(_is_number(v) for v in raw):
        raise InstanceFormatError(f"symbol: expected a list of numbers, got {raw!r}")
    arr = np.array(raw, dtype=float)
    _require_finite(arr, "symbol")
    return arr


def _require_finite(arr: np.ndarray, field: str) -> None:
    # json.loads reads the literals NaN, Infinity and -Infinity as floats
    if not np.isfinite(arr).all():
        bad = float(arr[~np.isfinite(arr)][0])
        raise InstanceFormatError(f"{field}: entries must be finite, got {bad!r}")


def _enc_space(s: SpaceSpec) -> dict:
    return {"dim": s.dim, "exponent": _enc_exponent(s.exponent)}


def _dec_space(raw, field: str) -> SpaceSpec:
    if not isinstance(raw, dict) or "dim" not in raw or "exponent" not in raw:
        raise InstanceFormatError(f"{field}: expected an object with dim and exponent")
    if not _is_int(raw["dim"]):
        raise InstanceFormatError(f"{field}: dim must be an integer, got {raw['dim']!r}")
    try:
        return SpaceSpec(raw["dim"], _dec_exponent(raw["exponent"], field))
    except ValueError as exc:
        raise InstanceFormatError(f"{field}: {exc}") from exc


def serialize(inst: Instance) -> str:
    doc = {
        "version": FORMAT_VERSION,
        "x1": _enc_space(inst.x1),
        "x2": _enc_space(inst.x2),
        "components": [_enc_space(c) for c in inst.components],
        "frame_exponent": _enc_exponent(inst.frame_exponent),
        "lam": [m.tolist() for m in inst.lam],
        "theta": [m.tolist() for m in inst.theta],
        "symbol": inst.symbol.tolist(),
    }
    if inst.p1 is not None:
        doc["p1"] = _enc_exponent(inst.p1)
    if inst.seed is not None:
        doc["seed"] = int(inst.seed)
    return json.dumps(doc, indent=2, sort_keys=True)


def _dec_mats(raw, field: str) -> tuple[np.ndarray, ...]:
    if not isinstance(raw, list) or not raw:
        raise InstanceFormatError(f"{field}: expected a nonempty list of matrices")
    out = []
    for i, m in enumerate(raw):
        try:
            arr = np.asarray(m, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InstanceFormatError(f"{field}[{i}]: not a numeric matrix") from exc
        if arr.ndim != 2:
            raise InstanceFormatError(f"{field}[{i}]: expected 2 dimensions, got {arr.ndim}")
        # asarray reads true as 1.0, "1.5" as 1.5 and null as nan; a JSON
        # number parses to exactly int or float (bool is a subclass of int)
        if not all(_NUMBER_TYPES.issuperset(map(type, row)) for row in m):
            bad = next(v for row in m for v in row if type(v) not in _NUMBER_TYPES)
            raise InstanceFormatError(f"{field}[{i}]: entries must be numbers, got {bad!r}")
        _require_finite(arr, f"{field}[{i}]")
        out.append(arr)
    return tuple(out)


def parse(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("top level must be an object")
    for key in ("version", "x1", "x2", "components", "frame_exponent", "lam", "theta", "symbol"):
        if key not in doc:
            raise InstanceFormatError(f"missing field {key!r}")
    if doc["version"] != FORMAT_VERSION:
        raise InstanceFormatError(
            f"version: expected {FORMAT_VERSION!r}, got {doc['version']!r}"
        )
    if not isinstance(doc["components"], list) or not doc["components"]:
        raise InstanceFormatError("components: expected a nonempty list")
    try:
        return Instance(
            x1=_dec_space(doc["x1"], "x1"),
            x2=_dec_space(doc["x2"], "x2"),
            components=tuple(
                _dec_space(c, f"components[{i}]") for i, c in enumerate(doc["components"])
            ),
            frame_exponent=_dec_exponent(doc["frame_exponent"], "frame_exponent"),
            lam=_dec_mats(doc["lam"], "lam"),
            theta=_dec_mats(doc["theta"], "theta"),
            symbol=_dec_symbol(doc["symbol"]),
            p1=_dec_exponent(doc["p1"], "p1") if "p1" in doc else None,
            seed=_dec_seed(doc["seed"]) if "seed" in doc else None,
        )
    except InstanceFormatError:
        raise
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc


def save(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(inst))
        fh.write("\n")


def load(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
