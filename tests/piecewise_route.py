"""The masked-loop route of the smoothed piecewise loading, as a test oracle.

``SmoothedPiecewiseLinear`` reads one table of pieces.  This module keeps the
routes that table replaced: the array ``q`` and ``qdot`` that evaluate the
linear segments and then overwrite the blend zone of each interior knot in
turn, so that a later zone overwrites an earlier one, and the float ``q`` that
finds the zone and the segment with two bisections.  The tests compare them
with the table bitwise.
"""

from bisect import bisect_right

import numpy as np


def slopes(loading):
    return np.diff(np.asarray(loading.values)) / np.diff(np.asarray(loading.times))


def max_rate(loading):
    return float(np.max(np.abs(slopes(loading))))


def q(loading, t):
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    knots = np.asarray(loading.times)
    vals = np.asarray(loading.values)
    s = slopes(loading)
    seg = np.clip(np.searchsorted(knots, ts, side="right") - 1, 0, len(s) - 1)
    out = vals[seg] + s[seg] * (ts - knots[seg])
    for i in range(1, len(knots) - 1):
        lo = knots[i] - loading.blend
        hi = knots[i] + loading.blend
        mask = (ts >= lo) & (ts <= hi)
        if not np.any(mask):
            continue
        s0, s1 = s[i - 1], s[i]
        u = ts[mask] - lo
        q_lo = vals[i] - s0 * loading.blend
        out[mask] = q_lo + s0 * u + (s1 - s0) * u * u / (4.0 * loading.blend)
    return out


def qdot(loading, t):
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    knots = np.asarray(loading.times)
    s = slopes(loading)
    seg = np.clip(np.searchsorted(knots, ts, side="right") - 1, 0, len(s) - 1)
    out = s[seg].astype(float)
    for i in range(1, len(knots) - 1):
        lo = knots[i] - loading.blend
        hi = knots[i] + loading.blend
        mask = (ts >= lo) & (ts <= hi)
        if not np.any(mask):
            continue
        s0, s1 = s[i - 1], s[i]
        u = (ts[mask] - lo) / (2.0 * loading.blend)
        out[mask] = s0 + (s1 - s0) * u
    return out


def scalar_q(loading):
    """``q`` on one Python float: the zone that starts last at or before ``t``
    if it holds ``t``, which is the zone the array route writes last, else the
    linear segment."""
    knots, values, blend = loading.times, loading.values, loading.blend
    s = [(v1 - v0) / (t1 - t0) for t0, t1, v0, v1 in zip(knots, knots[1:], values, values[1:])]
    last = len(s) - 1
    starts = [knots[i] - blend for i in range(1, last + 1)]
    zones = [(knots[i] + blend, values[i] - s[i - 1] * blend, s[i - 1], s[i] - s[i - 1])
             for i in range(1, last + 1)]
    width = 4.0 * blend

    def at(t):
        j = bisect_right(starts, t)
        if j:
            end, q_lo, s0, ds = zones[j - 1]
            if t <= end:
                u = t - starts[j - 1]
                return q_lo + s0 * u + ds * u * u / width
        seg = min(max(bisect_right(knots, t) - 1, 0), last)
        return values[seg] + s[seg] * (t - knots[seg])

    return at
