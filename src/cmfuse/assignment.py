"""Exact maximum-weight assignment over rational weights.

Kuhn-Munkres with row/column potentials, run on negated weights so the
usual minimization form applies. All arithmetic stays in Fraction, so a
weight of exactly one survives untouched and verdicts that hinge on
exact equality are safe.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def max_assignment(
    weights: Sequence[Sequence[Fraction]],
) -> tuple[Fraction, list[tuple[int, int]]]:
    """Maximum-weight one-to-one assignment on a rectangular matrix.

    Returns the total weight and the chosen (row, column) cells, skipping
    zero-weight pairings, sorted by row.
    """
    n = len(weights)
    m = len(weights[0]) if n else 0
    if n == 0 or m == 0:
        return Fraction(0), []
    flipped = n > m
    w = weights
    if flipped:
        w = [[weights[i][j] for i in range(n)] for j in range(m)]
        n, m = m, n

    zero = Fraction(0)
    u = [zero] * (n + 1)
    v = [zero] * (m + 1)
    match = [0] * (m + 1)  # column -> matched row, 1-based; 0 means free
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv: list[Fraction | None] = [None] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = None
            j1 = 0
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = -w[i0 - 1][j - 1] - u[i0] - v[j]
                if minv[j] is None or cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if delta is None or minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                elif minv[j] is not None:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        # walk the alternating path back, flipping matched edges
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1

    value = Fraction(0)
    pairs = []
    for j in range(1, m + 1):
        i = match[j]
        if i and w[i - 1][j - 1] != 0:
            value += w[i - 1][j - 1]
            pairs.append((j - 1, i - 1) if flipped else (i - 1, j - 1))
    pairs.sort()
    return value, pairs


def max_matching(rows: Sequence[Sequence[int]]) -> int:
    """Size of a maximum matching in a bipartite graph of rows and columns.

    rows[i] lists the columns row i may take. This is the maximum-weight
    assignment of a 0/1 matrix, found with integer augmenting paths
    (each searched depth-first on an explicit stack) instead of rational
    potentials.
    """
    owner: dict[int, int] = {}  # column -> matched row
    return sum(_augment(start, rows, owner) for start in range(len(rows)))


def _augment(start: int, rows: Sequence[Sequence[int]], owner: dict[int, int]) -> bool:
    seen: set[int] = set()
    path = [start]  # rows of the alternating path
    taken: list[int] = []  # taken[k] is the column path[k] takes from path[k + 1]
    todo = [iter(rows[start])]
    while todo:
        for col in todo[-1]:
            if col not in seen:
                seen.add(col)
                break
        else:
            todo.pop()
            path.pop()
            if taken:
                taken.pop()
            continue
        taken.append(col)
        row = owner.get(col)
        if row is None:
            for r, c in zip(path, taken):
                owner[c] = r
            return True
        path.append(row)
        todo.append(iter(rows[row]))
    return False
