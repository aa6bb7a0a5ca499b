"""Host-speed correction: a fixed pure-Python kernel timed next to every op.

On a shared host the interpreter's speed drifts by tens of percent, over
seconds and over minutes, so the same op on the same input can take 30% more
time in one window than in another. The end-to-end run times this reference
kernel once before every op (outside the op's own time). Each op's time is
then scaled by NOMINAL_S / R, where R is the mean kernel time over the
WINDOW samples on either side of that op, less the highest and lowest tenth.
A mean, not a median: the host often flips between a fast and a slow state
many times within one op, and the op pays the average of the two. A time so
scaled reads as if the host had run the kernel in exactly NOMINAL_S
throughout: host drift cancels, and a change to the package, which cannot
change the kernel, still shows in full. The report line gives the unscaled
figures next to the scaled ones.

The kernel does what the package does most (see `kernel`) and depends on
nothing outside this file. The host's slowdowns do not hit all code alike, so
the correction is close, not exact: it removes most of the drift, not all.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# typical kernel time on the host the bench was tuned on (2-vCPU Linux VM,
# Python 3.11), so that the scaled figures stay close to the unscaled ones
NOMINAL_S = 0.0026
WINDOW = 10
# setup_s is corrected by bare interpreter spawns instead (run.measure_setup);
# their median time on the same host
SPAWN_NOMINAL_S = 0.06


def fp_add(P, Q, a: int, p: int):
    """Chord-tangent addition on y^2 = x^3 + ax + b over F_p (None is the identity)."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _mul(a: list[int], b: list[int]) -> list[int]:
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    return c


def kernel():
    """About equal shares of F_p point arithmetic (ffcurve), integer polynomial
    products (poly over ZZ), Fraction sums (poly over QQ) and big-int
    remainders (arith's trial division)."""
    P, R = (3, 6), None  # on y^2 = x^3 + 2x + 3 over F_1009
    for _ in range(700):
        R = fp_add(R, P, 2, 1009)
    f = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3, -5, 8]
    g = f
    for _ in range(16):
        g = _mul(g, f)[:30]
    s = Fraction(0)
    for i in range(1, 180):
        s += Fraction(i, 2 * i + 1)
    m = (1 << 89) - 1
    return R, g, s, sum(m % d for d in range(3, 14000, 2))


def sample() -> float:
    """Seconds one kernel run takes."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def trimmed_mean(xs: list[float]) -> float:
    """Mean of xs without its highest and lowest tenth."""
    xs = sorted(xs)
    cut = len(xs) // 10
    return statistics.fmean(xs[cut : len(xs) - cut])


def scales(refs: list[float], window: int = WINDOW) -> list[float]:
    """Per sample i: NOMINAL_S / trimmed_mean(refs[i - window : i + window + 1])."""
    return [
        NOMINAL_S / trimmed_mean(refs[max(0, i - window) : i + window + 1]) for i in range(len(refs))
    ]
