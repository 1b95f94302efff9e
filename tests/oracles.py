"""Independent brute-force oracles.

Plain-Python triple loops sharing no code with the package internals, and
one numpy reference, broadcast_closure. Unit and acceptance tests freeze
these outputs or compare against them directly; when the library and an
oracle disagree, the oracle wins.
"""

import numpy as np

# The (row, column) of the entries a and b that the left side of the type-ty
# triangle inequality a + b >= d(y, z) adds at the triple (x, y, z).
SLOTS = {
    "o": lambda x, y, z: ((x, y), (x, z)),
    "i": lambda x, y, z: ((y, x), (z, x)),
    "t": lambda x, y, z: ((y, x), (x, z)),
    "c": lambda x, y, z: ((x, y), (z, x)),
}


def _lhs(slots):
    def lhs(E, x, y, z):
        (r, s), (u, v) = slots(x, y, z)
        return E[r][s] + E[u][v]
    return lhs


LHS = {ty: _lhs(slots) for ty, slots in SLOTS.items()}


def additive_scan(E, ty, prequad, eps=1e-9):
    """All violating triples in row-major order, plus the minimum slack.

    A pre-quadrangle slack is rounded as (lhs - p(y,z)) - p(x,x), the order
    the checks document, not as lhs - (p(y,z) + p(x,x)).
    """
    n = len(E)
    lhs = LHS[ty]
    bad = []
    min_slack = None
    for x in range(n):
        for y in range(n):
            for z in range(n):
                slack = lhs(E, x, y, z) - E[y][z]
                if prequad:
                    slack -= E[x][x]
                if min_slack is None or slack < min_slack:
                    min_slack = slack
                if slack < -eps:
                    bad.append((x, y, z))
    return bad, min_slack


# Triples whose right-side entry p(y,z) also sits on the left side, so that
# raising it cannot break the pre-quadrangle inequality.
FIXED = {
    "o": lambda x, y, z: y == x,
    "i": lambda x, y, z: z == x,
    "t": lambda x, y, z: y == x or z == x,
    "c": lambda x, y, z: x == y == z,
}


def perturb_target(E, ty):
    """(slack, x, y, z) of the triple perturb_violation raises p(y,z) at.

    The minimum pre-quadrangle slack over the triples outside FIXED; among
    exact ties an off-diagonal target wins, then the first in row-major order.
    """
    n = len(E)
    lhs = LHS[ty]
    best = best_key = None
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if FIXED[ty](x, y, z):
                    continue
                slack = (lhs(E, x, y, z) - E[y][z]) - E[x][x]
                key = (slack, y == z)
                if best_key is None or key < best_key:
                    best_key, best = key, (slack, x, y, z)
    return best


def strict_scan(E, ty, eps_strict=1e-9):
    """Pairs (x, y), x != y, where the z = y instance is not strict; a NaN slack is not."""
    n = len(E)
    lhs = LHS[ty]
    bad = []
    for x in range(n):
        for y in range(n):
            if y != x and not lhs(E, x, y, y) - (E[y][y] + E[x][x]) > eps_strict:
                bad.append((x, y))
    return bad


def transition_scan(E, eps=1e-9):
    n = len(E)
    bad = []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if E[y][x] * E[x][z] > E[y][z] * E[x][x] * (1 + eps) + eps:
                    bad.append((x, y, z))
    return bad


def diagonal_bounds_scan(E, ty):
    """(lo, hi) per point x from the type-ty triangle triples that pin d(x,x).

    a + b >= d(y,z) holds d(x,x) in slot a at (x, x, z), in slot b at
    (x, y, x) and on the right at (w, x, x). So lo is the largest d(y,z)
    less the other slot over the first two, and hi the least a + b over the
    third, with z, y and w running over every point, x included. Each bound
    is given as v + 0.0.
    """
    n = len(E)
    slots = SLOTS[ty]
    at = lambda s: E[s[0]][s[1]]
    out = []
    for x in range(n):
        lo = max([E[x][z] - at(slots(x, x, z)[1]) for z in range(n)]
                 + [E[y][x] - at(slots(x, y, x)[0]) for y in range(n)])
        hi = min(at(a) + at(b) for a, b in (slots(w, x, x) for w in range(n)))
        out.append((lo + 0.0, hi + 0.0))
    return out


def splitmix64(seed, k):
    """The first k SplitMix64 outputs from seed, one Python-int draw at a time."""
    mask = (1 << 64) - 1
    state, out = seed & mask, []
    for _ in range(k):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def generated(kind, n, seed, scale=10.0, ty="t", strict=False):
    """A generator's matrix rebuilt from its documented draw order, one draw at a time.

    kind is "metric", "qsm", "proto" or "zero"; the redraw of a degenerate
    closure is not modelled (it is unreachable at these scales).
    """
    draws = iter(splitmix64(seed, 2 * n * n + 2 * n))

    def unit_pos():
        return ((next(draws) >> 44) + 1) * 2.0 ** -20 * scale

    def signed():
        return ((next(draws) >> 43) * 2.0 ** -20 - 1.0) * scale

    def closed(m, symmetric):
        E = [[0.0] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                if (i < j) if symmetric else (i != j):
                    E[i][j] = unit_pos()
                    if symmetric:
                        E[j][i] = E[i][j]
        return minplus_closure(E)

    if kind in ("metric", "qsm"):
        return closed(n, kind == "metric")
    if kind == "zero":
        a = [signed() for _ in range(n)]
        b = [signed() for _ in range(n)]
        return [[a[i] + b[j] for j in range(n)] for i in range(n)]
    m = n if strict else max(1, (n + 1) // 2)
    base = closed(m, ty != "t")
    sigma = list(range(m)) + [next(draws) % m for _ in range(m, n)]
    f = [signed() for _ in range(n)]
    return [[((base[sigma[i]][sigma[j]] + f[i]) + f[j]) * 0.5 for j in range(n)] for i in range(n)]


def minplus_closure(E):
    n = len(E)
    D = [row[:] for row in E]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = D[i][k] + D[k][j]
                if via < D[i][j]:
                    D[i][j] = via
    return D


def broadcast_closure(E):
    """The min-plus closure relaxed by numpy broadcast sums, one (n, n) sum per k.

    Unlike minplus_closure, which keeps an entry unless a path is strictly
    shorter, it takes np.minimum of each entry and its broadcast sum, so the
    package's closure must equal it bit for bit once -0.0 is read as 0.0.
    """
    out = np.array(E, dtype=float)
    for k in range(len(out)):
        np.minimum(out, out[:, k, None] + out[None, k, :], out=out)
    return out


def preorder_structure(E, eps_eq=1e-9):
    """Thresholded relation, its transitivity defects, classes, quotient pairs.

    Index-based mirror of the preorder contract: relation pairs row-major,
    classes grouped by mutual relation and listed by first member, quotient
    pairs between distinct class representatives.
    """
    n = len(E)
    rel = [[E[i][j] <= eps_eq for j in range(n)] for i in range(n)]
    defects = [
        (x, y, z)
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if rel[x][y] and rel[y][z] and not rel[x][z]
    ]
    assigned = [False] * n
    classes = []
    reps = []
    for i in range(n):
        if assigned[i]:
            continue
        members = [j for j in range(n) if rel[i][j] and rel[j][i]]
        for j in members:
            assigned[j] = True
        classes.append(tuple(members))
        reps.append(i)
    pairs = [(i, j) for i in range(n) for j in range(n) if rel[i][j]]
    order = [(a, b) for a in reps for b in reps if a != b and rel[a][b]]
    return pairs, defects, classes, order


def farris_scan(G):
    """Least C: max of the triple form, the largest entry, and zero."""
    n = len(G)
    best = 0.0
    for x in range(n):
        for y in range(n):
            for z in range(n):
                v = G[x][y] + G[x][z] - G[y][z]
                if v > best:
                    best = v
    for x in range(n):
        for y in range(n):
            if G[x][y] > best:
                best = G[x][y]
    return best
