"""Answer gate: compare a run's per-point answers with the frozen reference.

Discrete fields must match exactly; solver values must agree to
2 * residual_tol * (1 + |reference|).  Non-finite values are stored as
their repr ("nan", "inf", "-inf") and compared exactly.
"""

from __future__ import annotations

import math

EXACT = ("status", "predicted", "agreement", "restarts_used")
CLOSE = ("energy", "lam", "infimum", "path_level")


def number(x):
    """JSON-safe form of a solver value: float, None, or the repr of a
    non-finite float."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else repr(x)


def departures(reference: dict, answers: dict, residual_tol: float) -> dict[str, list[str]]:
    """Per point whose answer departs from the reference, what departs.

    A point missing from either side is a departure.
    """
    out: dict[str, list[str]] = {}
    for pid in sorted(set(reference) | set(answers)):
        ref, got = reference.get(pid), answers.get(pid)
        if ref is None or got is None:
            out[pid] = ["not in the reference" if ref is None else "no answer"]
            continue
        msgs = [f"{key} {got.get(key)!r} != {ref.get(key)!r}"
                for key in EXACT if ref.get(key) != got.get(key)]
        for key in CLOSE:
            r, g = ref.get(key), got.get(key)
            if isinstance(r, float) and isinstance(g, float):
                if abs(g - r) > 2.0 * residual_tol * (1.0 + abs(r)):
                    msgs.append(f"{key} {g!r} vs {r!r}")
            elif r != g:
                msgs.append(f"{key} {g!r} != {r!r}")
        if msgs:
            out[pid] = msgs
    return out
