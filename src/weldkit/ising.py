"""Spin-flip barriers on small graphs by brute force.

One spin per vertex, ferromagnetic bonds on the edges: a configuration
costs its number of frustrated bonds.  spin_flip_barrier finds the
lowest peak cost over all single-flip paths between two configurations
by deepening a threshold search; a flip updates the frustration from
the flipped spin's own bonds.  Each threshold's depth-first search
tries the flips toward the target first.  That order cannot change an
answer: every threshold below the barrier is still searched to
exhaustion, and the order only decides how soon the target is found
once a threshold reaches it.  Kept free of the stabilizer machinery on
purpose, so it can serve as an independent cross-check: it imports
nothing from weldkit, shares no code with the bottleneck engine in
energy.py and uses no syndrome masks.
"""

import operator

MAX_SPINS = 24


def _index(value, what):
    """value as an int through operator.index, never truncated, or ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def spin_flip_barrier(n_spins, edges, target_mask, start_mask=0):
    """Minimal peak frustration over paths from start to target.

    Masks hold one spin per bit.  The peak is measured at every
    configuration the path visits, endpoints included.
    """
    n = _index(n_spins, "n_spins")
    if not 0 < n <= MAX_SPINS:
        raise ValueError(f"n_spins must be in 1..{MAX_SPINS}, got {n_spins}")
    bonds = []
    for bond in edges:
        try:
            u, v = bond
        except (TypeError, ValueError):
            raise ValueError(f"bond {bond!r} is not a pair of spins") from None
        u, v = _index(u, "bond end"), _index(v, "bond end")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bond ({u},{v}) leaves the spin range")
        if u == v:
            raise ValueError(f"bond ({u},{v}) ties a spin to itself")
        bonds.append((u, v))
    start = _index(start_mask, "start_mask")
    target = _index(target_mask, "target_mask")
    if not (0 <= start < 1 << n and 0 <= target < 1 << n):
        raise ValueError("spin masks must fit in n_spins bits")

    # a repeated bond is listed once per copy, so it counts once per copy
    neighbours = [[] for _ in range(n)]
    for u, v in bonds:
        neighbours[u].append(v)
        neighbours[v].append(u)

    def frustration(s):
        return sum(1 for u, v in bonds if ((s >> u) ^ (s >> v)) & 1)

    first = frustration(start)
    floor = max(first, frustration(target))
    for threshold in range(floor, len(bonds) + 1):
        seen = {start}
        stack = [(start, first)]
        while stack:
            s, f = stack.pop()
            if s == target:
                return threshold
            # flips toward the target go on the stack last, so they pop first
            todo = s ^ target
            order = [j for j in range(n) if not todo >> j & 1]
            order += [j for j in range(n) if todo >> j & 1]
            for j in order:
                t = s ^ (1 << j)
                if t in seen:
                    continue
                # flipping j toggles each of its bonds: an agreeing
                # neighbour becomes frustrated, a disagreeing one relaxes
                side = (s >> j) & 1
                g = f
                for v in neighbours[j]:
                    g += 1 if (s >> v) & 1 == side else -1
                if g <= threshold:
                    seen.add(t)
                    stack.append((t, g))
    raise AssertionError("flipping one frustrated bond at a time always connects")
