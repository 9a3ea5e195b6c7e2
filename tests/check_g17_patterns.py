"""Check the numpy %.17g formatter against % on random doubles.

    PYTHONPATH=src python tests/check_g17_patterns.py

``_write_csv`` formats %.17g values with 1e-6 < |v| < 1e17 in numpy; every
double, in that range or not, must print as % prints it.  The values are
2,000,000 random 64-bit patterns, half with their exponent in the range, and
each power of ten from 1e-7 to 1e17 with its neighbours, zeros and ties, in
two-column tables, so both separators are written.  Exits with the first
value that prints otherwise.
"""

import math
import sys

import numpy as np

from nyquist_otdm.core import _g17

SEPS = np.array([ord(","), ord("\n")], np.uint64) << 56


def text(table) -> str:
    out = np.zeros(table.shape + (4,), np.uint64)
    _g17(table, out, SEPS[:table.shape[1]])
    return out.tobytes().translate(None, b"\0").decode("ascii")


def main() -> int:
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2 ** 64 - 1, 2_000_000, dtype=np.uint64, endpoint=True)
    # the second half keeps its sign and mantissa bits, with its exponent
    # drawn from the binades 2**-20 .. 2**56, which hold 1e-6 < |v| < 1e17
    folded = bits[1_000_000:]
    folded &= ~np.uint64(0x7FF << 52)
    folded |= rng.integers(1023 - 20, 1023 + 57, folded.size).astype(np.uint64) << 52
    powers = np.array([float(f"1e{k}") for k in range(-7, 18)])
    edges = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf),
                            [0.0, 5e-324, 123456789012345.625, 123456789012345.875,
                             100000000000000.125, 999999999999999.875]])
    values = np.concatenate([bits.view(np.float64), edges, -edges])
    for chunk in np.array_split(values.reshape(-1, 2), 200):
        if text(chunk) != "".join("%.17g,%.17g\n" % (a, b) for a, b in chunk.tolist()):
            bad = next(v for v in chunk.ravel().tolist()
                       if text(np.array([[v]])) != "%.17g," % v)
            sys.exit(f"{bad!r} does not print as '%.17g' prints it")
    fast = np.count_nonzero((np.abs(values) > 1e-6) & (np.abs(values) < 1e17))
    print(f"{values.size} values, {fast} in the kernel's range, print as '%.17g' prints them")
    return 0


if __name__ == "__main__":
    sys.exit(main())
