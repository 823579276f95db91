"""Independent reference implementations used to freeze expected values.

Everything in this module is deliberately written from first principles and
shares no code with the package: its own size tower, its own modular
folding, zero clauses outside every level's support, and the limit taken
as an explicit sup over all levels at once.  Searches are plain re-scans
with no sliding-window reuse and no early exits.
"""
from __future__ import annotations

from fractions import Fraction

F = Fraction


# -- size tower (minimal growth rule), recomputed locally ------------------

def tower(depth, schedule=()):
    """Return (p_list, L_list), L list 1-based: the growth factors in
    `schedule` first, then the minimal growth rule."""
    p = [3]
    L = [None]
    for n in range(1, depth + 1):
        L.append(schedule[n - 1] if n <= len(schedule) else p[n - 1] ** 2)
        p.append(3 * 3 * L[n] * p[n - 1])
    return p, L


def base_profile(t):
    t = F(t)
    if -1 <= t <= 1:
        return F(0)
    if -3 <= t <= -2 or 2 <= t <= 3:
        return F(1)
    if -2 < t < -1:
        return -t - 1
    if 1 < t < 2:
        return t - 1
    return F(0)


def wrap(t, half):
    """Shift t by multiples of 2*half into [-half, half)."""
    return (F(t) + half) % (2 * half) - half


def wrap_by_stepping(t, half):
    """Same as wrap, by repeated shifting.

    The cost is linear in |t|/half: one Fraction step per period, about
    0.35-0.45 s at |t| = 10**6 with half = 3 (Python 3.11, 2-CPU x86-64). A
    property test that draws |t| from a wide range must therefore set
    ``deadline=None``; its check is an identity, not a speed.
    """
    t = F(t)
    two = 2 * half
    while t >= half:
        t -= two
    while t < -half:
        t += two
    return t


def periodized_base(t):
    return base_profile(wrap(t, 3))


def raw_level(p, L, n, t):
    """Level-n profile with the explicit zero clause outside [-p[n], p[n]]."""
    t = F(t)
    if n == 0:
        return base_profile(t)
    if t < -p[n] or t > p[n]:
        return F(0)
    stretched = periodized_base(t / (p[n - 1] * L[n]))
    cut = 3 * L[n] * p[n - 1]
    if t <= cut:
        return max(raw_periodized(p, L, n - 1, t), stretched)
    return max(raw_periodized(p, L, n - 1, t + 1), stretched)


def raw_periodized(p, L, n, t):
    return raw_level(p, L, n, wrap(t, p[n]))


def pruned_level(p, L, n, t, floor):
    """raw_level of level n with the levels below it that lie below `floor`
    read as 0: what the plateau certificate's walk keeps of level n when it
    does not descend to levels whose periods hold no run it needs."""
    t = F(t)
    if n == 0:
        return base_profile(t)
    stretched = periodized_base(t / (p[n - 1] * L[n]))
    if n - 1 < floor:
        return stretched
    at = t if t <= 3 * L[n] * p[n - 1] else t + 1
    return max(pruned_level(p, L, n - 1, wrap(at, p[n - 1]), floor), stretched)


def limit_value(t, schedule=()):
    """sup over all levels, taken literally over levels 0..cover."""
    t = F(t)
    n = 0
    p, L = tower(0, schedule)
    while p[n] < abs(t):
        n += 1
        p, L = tower(n, schedule)
    return max(raw_level(p, L, m, t) for m in range(n + 1))


def seq_value(i):
    """Integer-coordinate samples of the limit profile."""
    return limit_value(i)


# -- plain re-scan searches over pairs of index->value functions -----------

def naive_bracket_lo(value_a, value_b, t, k):
    """sum over i < k of |a(t+i) - b(t+i)| / 2^i, exactly.

    Term i is the integer weight 2^(k-1-i) over the common denominator
    2^(k-1); numerator and denominator are plain integers, reduced once at
    the end, so no term pays for a power of two or a gcd."""
    num, den = 0, 1
    for i in range(k):
        d = abs(value_a(t + i) - value_b(t + i))
        num, den = num * d.denominator + (d.numerator << (k - 1 - i)) * den, den * d.denominator
    return F(num, den << (k - 1))


def naive_min_hi(value_a, value_b, lo_t, hi_t, k):
    """(time, lo, hi) minimizing the bracket upper bound, smallest time on ties."""
    width = F(2) ** (1 - k)
    best = None
    for t in range(lo_t, hi_t + 1):
        lo = naive_bracket_lo(value_a, value_b, t, k)
        if best is None or lo < best[1]:
            best = (t, lo, lo + width)
    return best


def naive_max_lo(value_a, value_b, lo_t, hi_t, k):
    """(time, lo, hi) maximizing the bracket lower bound, smallest time on ties."""
    width = F(2) ** (1 - k)
    best = None
    for t in range(lo_t, hi_t + 1):
        lo = naive_bracket_lo(value_a, value_b, t, k)
        if best is None or lo > best[1]:
            best = (t, lo, lo + width)
    return best


def naive_recur_defect(value_a, value_b, lo_t, hi_t, k):
    """(time, defect_hi) minimizing the worse of the two self-return brackets."""
    width = F(2) ** (1 - k)
    best = None
    for t in range(lo_t, hi_t + 1):
        da = naive_bracket_lo(lambda i: value_a(t + i), value_a, 0, k)
        db = naive_bracket_lo(lambda i: value_b(t + i), value_b, 0, k)
        defect = max(da, db) + width
        if best is None or defect < best[1]:
            best = (t, defect)
    return best


def ones_runs_by_scan(values01):
    """Maximal runs of exact ones in a 0/1 list, as (start, end) pairs."""
    runs = []
    start = None
    for i, v in enumerate(values01):
        if v and start is None:
            start = i
        elif not v and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(values01) - 1))
    return runs
