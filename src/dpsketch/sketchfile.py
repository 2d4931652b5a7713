"""Portable release format for private sketches.

Layout: magic ``DPSK``, version u16 LE, JSON header length u32 LE, the JSON
header, then ``r * (d+1)`` float64 LE sketch entries row-major, then ``r``
float64 LE weights iff ``METHODS`` marks the method weighted. Round-trips
are bit-exact so solvers in any language read identical sketches. Writes go
to a temporary file in the target directory that is then renamed over the
target, so a failed write leaves any earlier file in place.

``read_sketch`` only parses these bytes; ``SketchFile`` keeps the file-level
rules and leaves the payload checks to ``SketchProblem``, which solvers read.

The header carries only public calibration metadata. Seeds, bucket/sign
plans, and raw data rows must never enter this file; publishing a seed
voids the privacy guarantee.
"""

from __future__ import annotations

import json
import os
import struct
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, SketchFileError
from .mechanisms import PrivacyParams, RowBound
from .solvers import SketchProblem

MAGIC = b"DPSK"
VERSION = 1


class Method(NamedTuple):
    """How a release method is requested, solved and stored."""

    flag: str  # value of ``dpsketch sketch --method``
    norm: str  # the regression norm its release is solved in
    weighted: bool  # the release carries one weight per sketch row


METHODS = {
    "jl": Method("jl", "l2", False),
    "countsketch-l2": Method("cs2", "l2", False),
    "l1-multilevel": Method("l1", "l1", True),
    "l1-illustration": Method("l1-illus", "l1", False),
}
_FORBIDDEN_META_KEYS = ("seed", "plan", "bucket_of", "sign_of")


def _keys(value):
    """Every mapping key in ``value``, at any depth of nested dicts and lists."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _keys(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _keys(item)


@dataclass(frozen=True)
class SketchFile:
    """In-memory form of a serialized sketch release."""

    method: str
    matrix: np.ndarray
    epsilon: float
    delta: float
    B: float
    meta: dict = field(default_factory=dict)
    weights: "np.ndarray | None" = None

    def __post_init__(self):
        if not isinstance(self.method, str) or self.method not in METHODS:
            raise ParameterError(f"unknown method {self.method!r}")
        PrivacyParams(self.epsilon, self.delta)
        RowBound(self.B)
        if not isinstance(self.meta, dict):
            raise ParameterError(f"meta must be a mapping, got {type(self.meta).__name__}")
        for key in _keys(self.meta):
            if key in _FORBIDDEN_META_KEYS:
                raise ParameterError(f"refusing to serialize {key!r} in a release header")
        if METHODS[self.method].weighted and self.weights is None:
            raise ParameterError(f"{self.method} releases require a weight vector")
        if not METHODS[self.method].weighted and self.weights is not None:
            raise ParameterError(f"method {self.method!r} does not carry weights")
        payload = SketchProblem(self.matrix, self.weights)
        object.__setattr__(self, "matrix", payload.M)
        object.__setattr__(self, "weights", payload.weights)
        if self.r < self.d:
            raise ParameterError(f"{self.r} sketch row(s) cannot determine {self.d} coefficients; need rows >= d")

    @property
    def r(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1] - 1


def write_sketch(path, sf: SketchFile) -> None:
    header = {
        "method": sf.method,
        "r": sf.r,
        "d": sf.d,
        "epsilon": sf.epsilon,
        "delta": sf.delta,
        "B": sf.B,
        "meta": sf.meta,
        "has_weights": sf.weights is not None,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with tmp.open("xb") as handle:
            handle.write(MAGIC)
            handle.write(struct.pack("<H", VERSION))
            handle.write(struct.pack("<I", len(blob)))
            handle.write(blob)
            handle.write(np.ascontiguousarray(sf.matrix, dtype="<f8").tobytes())
            if sf.weights is not None:
                handle.write(np.ascontiguousarray(sf.weights, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_sketch(path) -> SketchFile:
    raw = Path(path).read_bytes()
    if len(raw) < 10 or raw[:4] != MAGIC:
        raise SketchFileError(f"{path}: not a sketch file (bad magic)")
    (version,) = struct.unpack("<H", raw[4:6])
    if version != VERSION:
        raise SketchFileError(f"{path}: unsupported version {version}")
    (hlen,) = struct.unpack("<I", raw[6:10])
    if len(raw) < 10 + hlen:
        raise SketchFileError(f"{path}: truncated header")
    try:
        header = json.loads(raw[10 : 10 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SketchFileError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise SketchFileError(f"{path}: header is a JSON {type(header).__name__}, not an object")

    try:
        method = header["method"]
        r, d = header["r"], header["d"]
        epsilon, delta, bnd = header["epsilon"], header["delta"], header["B"]
        has_weights = header["has_weights"]
        meta = header.get("meta", {})
    except KeyError as exc:
        raise SketchFileError(f"{path}: header missing field {exc}") from exc
    for key, value, least in (("r", r, 1), ("d", d, 1)):
        if not isinstance(value, int) or isinstance(value, bool) or value < least:
            raise SketchFileError(f"{path}: header field {key!r} must be an integer >= {least}, got {value!r}")
    if not isinstance(has_weights, bool):
        raise SketchFileError(f"{path}: header field 'has_weights' must be true or false")

    got = len(raw) - (10 + hlen)
    need = r * (d + 1) * 8 + (r * 8 if has_weights else 0)
    if got != need:
        raise SketchFileError(f"{path}: payload has {got} bytes, expected {need}")
    # One copy of the payload; the matrix and weights are views of it.
    payload = np.frombuffer(raw, dtype="<f8", offset=10 + hlen).copy()
    matrix = payload[: r * (d + 1)].reshape(r, d + 1)
    weights = payload[r * (d + 1) :] if has_weights else None
    try:
        return SketchFile(
            method=method, matrix=matrix, epsilon=epsilon, delta=delta, B=bnd,
            meta=meta, weights=weights,
        )
    except ParameterError as exc:
        raise SketchFileError(f"{path}: {exc}") from exc
