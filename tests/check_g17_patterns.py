"""Check the numpy %.17g formatter against % on random doubles.

    PYTHONPATH=src python tests/check_g17_patterns.py

``_write_csv`` formats %.17g values with 1e-4 <= |v| < 1e17 in numpy, in
24-byte fields; the other values go to % in the same fields, and a block
with a 24-byte string, which leaves its field no byte for the separator, is
written by ``np.savetxt``.  Every double, in that range or not, must print as
% prints it.  The values are 2,000,000 random 64-bit patterns, half with
their exponent in the range, and each power of ten from 1e-7 to 1e17 with
its neighbours, zeros and ties, in two-column tables, so both separators are
written.  Each table goes through ``_write_csv``, and its rows without a
24-byte string through the kernel alone, which must report them whole.
Exits with the first value that prints otherwise.
"""

import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from nyquist_otdm.core import _g17, _write_csv

SEPS = np.array([ord(","), ord("\n")], np.uint64) << 56


def kernel_text(table) -> tuple:
    out = np.zeros(table.shape + (3,), np.uint64)
    whole = _g17(table, out, SEPS[-table.shape[1]:])
    return whole, out.tobytes().translate(None, b"\0").decode("ascii")


def csv_text(table, path: Path) -> str:
    _write_csv(path, "", table)
    return path.read_text()


def prints_as_percent(table, path: Path) -> bool:
    strings = np.array(["%.17g" % v for v in table.ravel().tolist()]).reshape(table.shape)
    fits = np.char.str_len(strings).max(axis=1, initial=0) < 24
    lines = [",".join(row) + "\n" for row in strings.tolist()]
    want = "".join(lines)
    return (csv_text(table, path) == want and kernel_text(table[fits])
            == (True, "".join(line for line, f in zip(lines, fits) if f)))


def main() -> int:
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2 ** 64 - 1, 2_000_000, dtype=np.uint64, endpoint=True)
    # the second half keeps its sign and mantissa bits, with its exponent
    # drawn from the binades 2**-20 .. 2**56, which hold 1e-6 < |v| < 1e17:
    # the kernel's range and the values below it that go to %
    folded = bits[1_000_000:]
    folded &= ~np.uint64(0x7FF << 52)
    folded |= rng.integers(1023 - 20, 1023 + 57, folded.size).astype(np.uint64) << 52
    powers = np.array([float(f"1e{k}") for k in range(-7, 18)])
    edges = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf),
                            [0.0, 5e-324, 123456789012345.625, 123456789012345.875,
                             100000000000000.125, 999999999999999.875]])
    values = np.concatenate([bits.view(np.float64), edges, -edges])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chunk.csv"
        for chunk in np.array_split(values.reshape(-1, 2), 200):
            if not prints_as_percent(chunk, path):
                bad = next(v for v in chunk.ravel().tolist()
                           if not prints_as_percent(np.array([[v]]), path))
                sys.exit(f"{bad!r} does not print as '%.17g' prints it")
    fast = np.count_nonzero((np.abs(values) >= 1e-4) & (np.abs(values) < 1e17))
    longest = sum(len("%.17g" % v) == 24 for v in values.tolist())
    print(f"{values.size} values, {fast} in the kernel's range and {longest} 24-byte "
          "strings, print as '%.17g' prints them")
    return 0


if __name__ == "__main__":
    sys.exit(main())
