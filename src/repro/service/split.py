"""Deterministic largest-remainder apportionment of integer fleets.

Turning fractional weights into whole VMs is the classic apportionment
problem.  We use the largest-remainder (Hamilton) method: every slot
gets the floor of its exact quota, and the leftover units go to the
slots with the largest fractional remainders.  Ties on the remainder
are broken by a seeded permutation so the result is deterministic,
order-stable, and reproducible across runs and platforms.

Used by the service tier's per-tenant fair-share split
(`repro.service.state`): the seeded tie-break makes the split, and so
the journaled state, replay bit-identically.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence

__all__ = ["largest_remainder"]


def largest_remainder(
    total: int,
    weights: Sequence[float],
    *,
    seed: int = 0,
) -> list[int]:
    """Split ``total`` integer units over ``weights``, preserving the sum.

    Guarantees, for any non-negative ``weights`` with a positive sum:

    - ``sum(result) == total`` (sum preservation);
    - ``weights[i] > weights[j]`` implies ``result[i] >= result[j]``
      (within-call monotonicity);
    - equal inputs give equal outputs (determinism) — remainder ties are
      broken by a ``random.Random(seed)`` permutation, not dict order;
    - the result is order-stable: shares follow the input positions.

    All-zero (or empty) weights fall back to an equal split with the
    same tie-break, so callers never have to special-case "nobody is
    asking".
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    n = len(weights)
    if n == 0:
        if total:
            raise ValueError("cannot split a positive total over no weights")
        return []
    if any(w < 0 for w in weights):
        raise ValueError(f"weights must be >= 0, got {list(weights)}")

    mass = float(sum(weights))
    if mass <= 0.0:
        quotas = [total / n] * n
    else:
        quotas = [total * (w / mass) for w in weights]

    shares = [math.floor(q) for q in quotas]
    leftover = total - sum(shares)

    # Seeded permutation rank as the tie-break: equal remainders resolve
    # the same way every call, independent of input ordering quirks.
    tie_rank = list(range(n))
    random.Random(seed).shuffle(tie_rank)
    order = sorted(
        range(n),
        key=lambda i: (-(quotas[i] - shares[i]), tie_rank[i]),
    )
    for i in order[:leftover]:
        shares[i] += 1
    return shares
