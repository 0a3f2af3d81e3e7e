"""SHA-256 digests of the analysis results of a fixed set of inputs.

    python tests/analysis_digest.py

It prints one digest over everything, then one per grid, partition kind and
input, so that a change shows which inputs moved.

Run from the root of a checkout; it imports `logbesov` from `src/` beside
this directory.  The digest covers, for gallery members and for inputs that
carry exact spectrum bins, at 1D J=12 and 2D J=8 with both partition kinds:

- the verdicts at p in {1, 2, 3, inf} and b in {-1, 0.5, 2};
- Besov norms (s = 0, those b and p, q in {1, inf}) and the tl norm at
  p = inf (q in {1, 2, inf});
- the sup and L^p norms of every piece and the means of its cube tables
  (r in {1, 2}), and the pieces' samples;
- `product_report` with a fixed partner.

Floats enter as their bytes or their `repr`, so two versions of the code
print the same digest only if every one of these results is the same bit
for bit; the combined digest hashes every input's records in turn.  An input error is recorded by its class, so it counts too.
pytest does not collect this file; it is a check to run by hand on both
sides of a change that claims to keep the results.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from logbesov.criteria import verdict  # noqa: E402
from logbesov.errors import LogBesovError  # noqa: E402
from logbesov.experiments import _exact_exponential  # noqa: E402
from logbesov.gallery import gallery_from_spec  # noqa: E402
from logbesov.grid import INF, GridSpec  # noqa: E402
from logbesov.norms import BesovParams, besov_norm, tl_norm_inf  # noqa: E402
from logbesov.paraproducts import product_report  # noqa: E402
from logbesov.partition import PartitionKind, build_partition, decompose  # noqa: E402

GRIDS = ((1, 12), (2, 8))
MEMBERS = ("exp:m=5", "const", "cube", "halfspace", "bump:l=3", "stack", "lacunary", "packet")
PS = (1.0, 2.0, 3.0, INF)
BS = (-1.0, 0.5, 2.0)
RS = (1.0, 2.0)


def _inputs(grid: GridSpec):
    """(name, function): the gallery members, then inputs carrying bins."""
    for spec in MEMBERS:
        yield spec, gallery_from_spec(grid, spec)
    tail = (0,) * (grid.dim - 1)
    down = _exact_exponential(grid, (-(1 << 3),) + tail)
    yield "exact-exp:m=4", _exact_exponential(grid, (1 << 4,) + tail)
    yield "packet*exact-exp:m=-3", gallery_from_spec(grid, "packet") * down


def _guarded(fn):
    """fn(), or the class name of the input error it raises."""
    try:
        return fn()
    except LogBesovError as err:
        return type(err).__name__


def _records(grid: GridSpec, kind: PartitionKind):
    """(name, records) of each input, records a generator."""
    part = build_partition(grid, kind)
    partner = _exact_exponential(grid, (1 << 2,) + (0,) * (grid.dim - 1))
    for name, f in _inputs(grid):
        yield name, _input_records(grid, part, partner, name, f)


def _input_records(grid: GridSpec, part, partner, name: str, f):
    yield name, part.kind.value, grid.dim, grid.log2_samples
    dec = decompose(f, part)
    for p in PS:
        for b in BS:
            yield _guarded(lambda: verdict(f, part, p, b, dec=dec).to_dict())
            for q in (1.0, INF):
                yield _guarded(lambda: besov_norm(f, part, BesovParams(0.0, b, p, q), dec=dec).value)
    for b in BS:
        for q in (1.0, 2.0, INF):
            yield _guarded(lambda: tl_norm_inf(f, part, 0.0, b, q, dec=dec).value)
    yield _guarded(lambda: dec.sup_norms().tobytes().hex())
    for p in PS:
        yield _guarded(lambda: dec.lp_norms(p).tobytes().hex())
    for r in RS:
        for k in range(part.k_max + 1):
            table = _guarded(lambda: dec.cube_table(k, r))
            if isinstance(table, str):
                yield table
                continue
            for level in range(min(k, grid.l_max) + 1):
                yield hashlib.sha256(table.means(level).tobytes()).hexdigest()
    for piece in dec.pieces:
        yield hashlib.sha256(piece.values.tobytes()).hexdigest()
    report = _guarded(lambda: product_report(f, partner, part))
    if isinstance(report, str):
        yield report
    else:
        yield repr(report.residual)
        for pi in (report.pi1, report.pi2, report.pi3):
            yield hashlib.sha256(pi.values.tobytes()).hexdigest()


def digests() -> tuple[str, list[str]]:
    """The combined digest, and one line "<dim>D J=<J> <kind> <input> <digest>"
    per grid, partition kind and input."""
    combined, lines = hashlib.sha256(), []
    for dim, J in GRIDS:
        grid = GridSpec(dim, J)
        for kind in PartitionKind:
            for name, records in _records(grid, kind):
                own = hashlib.sha256()
                for record in records:
                    line = json.dumps(record, sort_keys=True, default=repr).encode() + b"\n"
                    combined.update(line)
                    own.update(line)
                lines.append(f"{dim}D J={J} {kind.value} {name} {own.hexdigest()}")
    return combined.hexdigest(), lines


if __name__ == "__main__":
    combined, lines = digests()
    print(combined)
    print("\n".join(lines))
