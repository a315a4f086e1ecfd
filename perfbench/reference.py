"""Reference job: fixed work that does not touch trisys, timed by run.py.

    python3 perfbench/reference.py

run.py starts this script as a child process between the measured
commands and takes the median of its wall times as the speed of the host
during the run.  The timed end-to-end metrics are rescaled by that speed
(see README.md), so a stretch of minutes in which the shared host runs
everything slower moves the reference and the commands together and
cancels out.  The work resembles the commands' own: interpreter start and
numpy import, tuple/dict/set work on triples (the library's blocks) and a
dense elimination mod 3 (the rank pipeline's).  It must not change, or
every rescaled metric moves with it.
"""

import random

import numpy as np


def triples() -> int:
    """Count pair coverage of random triples on 400 points."""
    rng = random.Random(7)
    points = list(range(400))
    pairs: dict[tuple[int, int], int] = {}
    blocks = set()
    for _ in range(15000):
        a, b, c = sorted(rng.sample(points, 3))
        blocks.add((a, b, c))
        for pair in ((a, b), (a, c), (b, c)):
            pairs[pair] = pairs.get(pair, 0) + 1
    return len(blocks) + sum(1 for n in pairs.values() if n > 1)


def eliminate() -> int:
    """Rank mod 3 of a fixed random 1200 x 90 matrix by row reduction."""
    m = np.random.default_rng(12345).integers(0, 3, size=(1200, 90), dtype=np.int64)
    row = 0
    for col in range(m.shape[1]):
        nz = np.nonzero(m[row:, col])[0]
        if nz.size == 0:
            continue
        p = row + nz[0]
        m[[row, p]] = m[[p, row]]
        m[row] = m[row] * m[row, col] % 3  # x * x = 1 mod 3 for x = 1, 2
        m[row + 1:] = (m[row + 1:] - np.outer(m[row + 1:, col], m[row])) % 3
        row += 1
    return row


if __name__ == "__main__":
    print(triples(), eliminate())
