"""File formats: `.sfn` sampled functions and `.dpu` partition exports.

Both are a single UTF-8 JSON header line (newline-terminated) followed by a
raw little-endian float64 payload.  `.sfn` interleaves (re, im) pairs of the
row-major samples, with im = 0 for a real function; the reader returns real
(`float64`) samples when every im is zero, as `SampledFunction` stores them.
`.dpu` concatenates the per-level symbol arrays (FFT frequency layout,
row-major), k = 0..K_max.
"""

from __future__ import annotations

import json
import operator
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .grid import GridSpec, SampledFunction
from .partition import DyadicPartition, PartitionKind, build_partition


def _write(path, header: dict, payloads) -> None:
    """Header line, then each float64 payload; an unwritable path is an input error."""
    try:
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            for payload in payloads:
                fh.write(payload.tobytes())
    except OSError as exc:
        raise InvalidInputError(f"{path}: {exc.strerror}") from None


def save_sfn(path, f: SampledFunction) -> None:
    header = {"format": "sfn", "dim": f.grid.dim, "J": f.grid.log2_samples}
    flat = f.values.reshape(-1)
    payload = np.zeros(2 * flat.size, dtype="<f8")
    payload[0::2] = flat.real
    if np.iscomplexobj(flat):
        payload[1::2] = flat.imag
    _write(path, header, [payload])


def _read(path, fmt: str) -> tuple[dict, np.ndarray]:
    """Header and float64 payload of a `fmt` file; a bad file is an input error."""
    try:
        raw = Path(path).read_bytes()
        nl = raw.index(b"\n")
        header = json.loads(raw[:nl].decode("utf-8"))
    except OSError as exc:
        raise InvalidInputError(f"{path}: {exc.strerror}") from None
    except ValueError:  # no header line, or one that is not UTF-8 JSON
        header = {}
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise InvalidInputError(f"{path}: not an .{fmt} file")
    payload = raw[nl + 1 :]
    if len(payload) % 8:
        raise InvalidInputError(f"{path}: payload of {len(payload)} bytes is not a whole number of f64")
    return header, np.frombuffer(payload, dtype="<f8")


def _header_field(path, header: dict, key: str, parse=operator.index, default=None):
    """Header field `key` read by `parse` (an integer by default); a bad value is an input error."""
    try:
        return parse(header.get(key, default))
    except (TypeError, ValueError):
        raise InvalidInputError(f"{path}: bad header field {key!r}: {header.get(key)!r}") from None


def load_sfn(path) -> SampledFunction:
    """The sampled function of an `.sfn` file: real samples in a new
    `float64` array when every im is zero, else a read-only `complex128`
    view of the file's payload."""
    header, payload = _read(path, "sfn")
    grid = GridSpec(_header_field(path, header, "dim"), _header_field(path, header, "J"))
    expected = 2 * grid.n_samples**grid.dim
    if payload.size != expected:
        raise InvalidInputError(f"{path}: payload has {payload.size} f64, expected {expected}")
    # the (re, im) pairs read as complex128 in place; SampledFunction keeps
    # the real part alone when every im is zero
    return SampledFunction(grid, payload.view("<c16"))


def save_dpu(path, partition: DyadicPartition) -> None:
    grid = partition.grid
    header = {
        "format": "dpu",
        "kind": partition.kind.value,
        "J": grid.log2_samples,
        "dim": grid.dim,
        "K_max": partition.k_max,
    }
    _write(path, header, (partition.symbol(k).astype("<f8") for k in range(partition.k_max + 1)))


def load_dpu(path) -> tuple[DyadicPartition, list[np.ndarray]]:
    """Load a partition export; returns the rebuilt partition and the stored
    symbol arrays (so round-trip checks can compare them).  A header whose
    `K_max` is not the grid's, J - 2, is an input error."""
    header, payload = _read(path, "dpu")
    grid = GridSpec(_header_field(path, header, "dim", default=1), _header_field(path, header, "J"))
    partition = build_partition(grid, _header_field(path, header, "kind", PartitionKind))
    n = grid.n_samples**grid.dim
    k_max = _header_field(path, header, "K_max")
    if k_max != grid.k_max:
        raise InvalidInputError(f"{path}: K_max {k_max} is not J - 2 = {grid.k_max}")
    if payload.size != (k_max + 1) * n:
        raise InvalidInputError(f"{path}: truncated symbol payload")
    symbols = [
        payload[k * n : (k + 1) * n].reshape(grid.shape) for k in range(k_max + 1)
    ]
    return partition, symbols
