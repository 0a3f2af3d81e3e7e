import numpy as np
import pytest

from logbesov.errors import InvalidInputError
from logbesov.fileio import load_dpu, load_sfn, save_dpu, save_sfn
from logbesov.grid import GridSpec, random_band_limited
from logbesov.partition import PartitionKind, build_partition


def test_sfn_roundtrip(tmp_path, rng):
    g = GridSpec(1, 8)
    f = random_band_limited(g, 30, rng)
    path = tmp_path / "f.sfn"
    save_sfn(path, f)
    back = load_sfn(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_sfn_roundtrip_2d(tmp_path, rng):
    g = GridSpec(2, 6)
    f = random_band_limited(g, 10, rng)
    path = tmp_path / "f2.sfn"
    save_sfn(path, f)
    back = load_sfn(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_sfn_rejects_garbage(tmp_path):
    path = tmp_path / "bad.sfn"
    path.write_bytes(b'{"format": "nope"}\n')
    with pytest.raises(InvalidInputError):
        load_sfn(path)
    path.write_bytes(b'{"format": "sfn", "dim": 1, "J": 8}\n' + b"\x00" * 16)
    with pytest.raises(InvalidInputError):
        load_sfn(path)
    # header fields that are missing or not integers; the payload fits dim=1, J=8
    for header in (b'{"format": "sfn"}', b'{"format": "sfn", "dim": 1}', b'{"format": "sfn", "dim": 1, "J": "x"}',
                   b'{"format": "sfn", "dim": 1, "J": 8.5}', b'{"format": "sfn", "dim": null, "J": 8}'):
        path.write_bytes(header + b"\n" + b"\x00" * (16 * 256))
        with pytest.raises(InvalidInputError):
            load_sfn(path)


@pytest.mark.parametrize(
    "header",
    [
        b'{"format": "dpu", "kind": "radial", "dim": 1, "K_max": 6}',
        b'{"format": "dpu", "kind": "radial", "dim": 1, "J": "8", "K_max": 6}',
        b'{"format": "dpu", "dim": 1, "J": 8, "K_max": 6}',
        b'{"format": "dpu", "kind": "spiral", "dim": 1, "J": 8, "K_max": 6}',
        b'{"format": "dpu", "kind": "radial", "dim": 1, "J": 8}',
        b'{"format": "dpu", "kind": "radial", "dim": 1, "J": 8, "K_max": [6]}',
    ],
)
def test_dpu_header_fields_are_input_errors(tmp_path, header):
    """Missing or malformed header fields; the payload fits a J=8 radial export."""
    path = tmp_path / "bad.dpu"
    path.write_bytes(header + b"\n" + b"\x00" * (8 * 7 * 256))
    with pytest.raises(InvalidInputError):
        load_dpu(path)


def test_unwritable_path_is_input_error(tmp_path):
    g = GridSpec(1, 8)
    with pytest.raises(InvalidInputError):
        save_sfn(tmp_path / "missing" / "f.sfn", random_band_limited(g, 10, np.random.default_rng(0)))
    with pytest.raises(InvalidInputError):
        save_dpu(tmp_path / "missing" / "p.dpu", build_partition(g))


def test_dpu_roundtrip(tmp_path):
    g = GridSpec(1, 8)
    part = build_partition(g, PartitionKind.TENSOR)
    path = tmp_path / "p.dpu"
    save_dpu(path, part)
    rebuilt, symbols = load_dpu(path)
    assert rebuilt.kind is PartitionKind.TENSOR
    assert len(symbols) == part.k_max + 1
    for k in range(part.k_max + 1):
        assert np.array_equal(symbols[k], part.symbol(k))
        assert np.array_equal(rebuilt.symbol(k), part.symbol(k))
