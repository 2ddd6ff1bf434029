"""The benchmark's own arithmetic: percentiles and plan F1.

Kept free of numpy and of the library so ``test_benchstats.py`` checks it
against hand-computed cases without any set-up.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0 <= q <= 100) with linear interpolation.

    Position ``(n - 1) * q / 100`` in the sorted values, interpolated between
    its two neighbours; this is numpy's default ``linear`` method.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must lie in [0, 100], got {q}")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def reference_units(stamps: Sequence[float], kernel_s: Sequence[float]) -> float:
    """The time from the first stamp to the last in units of a reference kernel.

    ``kernel_s[i]`` is the kernel's duration measured at ``stamps[i]``. Each
    stretch between two stamps is divided by the mean of the kernel times
    at its ends, so a stretch run while the host was slow counts for what
    it would have taken at the kernel's pace.
    """
    if len(stamps) < 2 or len(stamps) != len(kernel_s):
        raise ValueError("need two or more stamps, one kernel time each")
    return sum(2.0 * (t1 - t0) / (k0 + k1)
               for t0, t1, k0, k1 in zip(stamps, stamps[1:], kernel_s, kernel_s[1:]))


def f1_score(predicted: Iterable, truth: Iterable) -> float:
    """F1 of a predicted set against a reference set.

    Both sets empty is a perfect answer (1); exactly one empty scores 0.
    """
    pred, ref = set(predicted), set(truth)
    if not pred and not ref:
        return 1.0
    return 2.0 * len(pred & ref) / (len(pred) + len(ref))


def plan_f1(plan, truth) -> tuple[float, float]:
    """F1 of a plan against a reference plan: over (attribute, rule) pairs and
    over (rule, dimension) pairs. Edge weights are ignored."""
    rule_f1 = f1_score(((e.attribute, e.rule) for e in plan.rule_edges),
                       ((e.attribute, e.rule) for e in truth.rule_edges))
    dim_f1 = f1_score(((e.rule, e.dimension) for e in plan.dimension_edges),
                      ((e.rule, e.dimension) for e in truth.dimension_edges))
    return rule_f1, dim_f1

