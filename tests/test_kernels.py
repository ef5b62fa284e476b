import itertools
import random
from fractions import Fraction

import pytest

from plumblat import exactlin, kernels
from plumblat.chimin import _shifted_quadratic
from plumblat.cycles import Cycle
from plumblat.kernels import box_values

from conftest import corpus, random_tree


def random_instance(rng, n, span=4, weight=6):
    """A random positive-definite integer quadratic and a box around 0."""
    # diagonally dominant symmetric matrices are positive definite
    P = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            P[i][j] = P[j][i] = rng.randint(-2, 2)
    for i in range(n):
        P[i][i] = sum(abs(x) for x in P[i]) + rng.randint(1, weight)
    q = [rng.randint(-weight, weight) for _ in range(n)]
    lo = [rng.randint(-span, 0) for _ in range(n)]
    hi = [l + rng.randint(0, span) for l in lo]
    return P, q, lo, hi


def box_points(lo, hi):
    """The box in lexicographic order, last coordinate fastest: the order
    the enumerator walks."""
    return list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))


def brute(P, q, lo, hi):
    n = len(lo)

    def f(p):
        return sum(
            P[i][j] * p[i] * p[j] for i in range(n) for j in range(n)
        ) + sum(q[i] * p[i] for i in range(n))

    pts = box_points(lo, hi)
    vals = [f(p) for p in pts]
    m = min(vals)
    arg = min(p for p, v in zip(pts, vals) if v == m)
    return m, arg, vals


def test_pure_matches_brute_force():
    rng = random.Random(11)
    for _ in range(150):
        P, q, lo, hi = random_instance(rng, rng.randint(1, 4))
        m, arg, vals = brute(P, q, lo, hi)
        got_m, got_arg = kernels.min_quadratic_box(P, q, lo, hi)
        assert (got_m, got_arg) == (m, arg)
        pairs = list(kernels.box_values(P, q, lo, hi))
        assert [p for p, _ in pairs] == box_points(lo, hi)
        assert [v for _, v in pairs] == vals


def test_large_magnitudes_stay_exact():
    """Values far past 64-bit range come out exact."""
    big = 10**12
    P = [[1]]
    q = [big]
    got = list(box_values(P, q, [0], [3]))
    assert got == [
        ((0,), 0), ((1,), 1 + big), ((2,), 4 + 2 * big), ((3,), 9 + 3 * big)
    ]
    m, arg = kernels.min_quadratic_box(P, [-2 * big], [0], [2 * big])
    assert arg == (big,)
    assert m == -big * big
    # two coordinates, both near 10^12
    P2 = [[2, 1], [1, 2]]
    q2 = [-6 * big, -6 * big]
    lo, hi = [big - 1, big - 2], [big + 1, big + 2]
    m, arg, vals = brute(P2, q2, lo, hi)
    assert (m, arg) == (-6 * big * big, (big, big))
    assert kernels.min_quadratic_box(P2, q2, lo, hi) == (m, arg)
    assert list(box_values(P2, q2, lo, hi)) == list(zip(box_points(lo, hi), vals))


def test_bounded_box_values_match_filtered_walk():
    """With a bound, box_values yields exactly the pairs of the full walk
    whose value is at most the bound, in the same order: bounds at, one
    below and one above attained values (integer roots of the last
    coordinate's quadratic), below the minimum, and with magnitudes near
    10^12."""
    rng = random.Random(17)
    big = 10**12
    for trial in range(200):
        n = rng.randint(1, 4)
        P, q, lo, hi = random_instance(rng, n)
        if trial % 4 == 3:
            # center the quadratic near big, so values are near -10^24
            center = [big + rng.randint(-2, 2) for _ in range(n)]
            q = [-2 * sum(P[i][j] * center[j] for j in range(n)) for i in range(n)]
            lo = [c + a for c, a in zip(center, lo)]
            hi = [c + b for c, b in zip(center, hi)]
        full = list(box_values(P, q, lo, hi))
        values = sorted({v for _, v in full})
        bounds = {values[0] - 1}
        for v in rng.sample(values, min(4, len(values))) + [values[0], values[-1]]:
            bounds |= {v - 1, v, v + 1}
        for bound in bounds:
            got = list(box_values(P, q, lo, hi, bound))
            assert got == [(p, v) for p, v in full if v <= bound]
        assert list(box_values(P, q, lo, hi, values[0] - 1)) == []


def test_backend_name():
    assert kernels.backend_name() == "python"


def test_argmin_is_lexicographically_smallest_on_flat_objective():
    P = [[1, 0], [0, 1]]
    q = [0, 0]
    # symmetric box: minimum 0 attained only at origin
    assert kernels.min_quadratic_box(P, q, [-2, -2], [2, 2]) == (0, (0, 0))
    # shifted so several points tie at the boundary
    m, arg = kernels.min_quadratic_box([[1, 0], [0, 1]], [0, 0], [1, -3], [3, 3])
    assert (m, arg) == (1, (1, 0))


def test_empty_and_bad_boxes_rejected():
    with pytest.raises(ValueError):
        kernels.min_quadratic_box([[1]], [0], [2], [1])
    with pytest.raises(ValueError):
        kernels.box_values([[1]], [0], [], [])


# -- differential checks of the enumerator against brute force -------------


def gram_instance(rng, n):
    """A random positive-definite P = A^T A + I, usually far from
    diagonally dominant."""
    A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    return [
        [sum(A[k][i] * A[k][j] for k in range(n)) + (i == j) for j in range(n)]
        for i in range(n)
    ]


def lattice_instance(rng, n):
    """P = d (-I) of a tree with n vertices, q of a random shift x0."""
    if n <= 5 and rng.random() < 0.5:
        g = rng.choice([g for g in corpus() if g.n == n])
    else:
        g = random_tree(rng, max_n=n)
        while g.n != n:
            g = random_tree(rng, max_n=n)
    den = rng.randint(1, 4)
    x0 = Cycle(g, [Fraction(rng.randint(-6, 6), den) for _ in range(n)])
    P, q, _ = _shifted_quadratic(g, x0.den, g.intersect(x0.nums), range(g.n))
    return P, q


def random_box(rng, n, points=1500):
    """A box with negative lower corners allowed and at most ``points``
    points."""
    lo, hi = [], []
    budget = points
    for k in range(n):
        span = rng.randint(0, max(0, min(6, round(budget ** (1 / (n - k))) - 1)))
        budget //= span + 1
        a = rng.randint(-5, 3)
        lo.append(a)
        hi.append(a + span)
    return lo, hi


def tied_q(rng, P, lo, hi):
    """q of (l - c)^T P (l - c): with c the centre of the box, the mirror
    image 2c - l of every box point is a box point of the same value, so
    the minimum is tied unless c itself is the argmin; with c elsewhere,
    possibly outside the box, the minimum often sits on its boundary."""
    n = len(P)
    if rng.random() < 0.6:
        twice_c = [a + b for a, b in zip(lo, hi)]
    else:
        twice_c = [rng.randint(2 * a - 3, 2 * b + 3) for a, b in zip(lo, hi)]
    return [-sum(P[i][j] * twice_c[j] for j in range(n)) for i in range(n)]


def check_against_brute(P, q, lo, hi, rng):
    m, arg, vals = brute(P, q, lo, hi)
    assert kernels.min_quadratic_box(P, q, lo, hi) == (m, arg)
    full = list(box_values(P, q, lo, hi))
    assert full == list(zip(box_points(lo, hi), vals))
    values = sorted(set(vals))
    bounds = {values[0] - 1}
    for v in rng.sample(values, min(3, len(values))) + [values[0], values[-1]]:
        bounds |= {v - 1, v, v + 1}
    for bound in bounds:
        assert list(box_values(P, q, lo, hi, bound)) == [
            (p, v) for p, v in full if v <= bound
        ]


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerator_matches_brute_force(n):
    """Gram and lattice matrices, plain and tied objectives, negative lower
    corners: the minimum, the lexicographically smallest argmin, the full
    walk and the bounded walks all agree with brute force."""
    rng = random.Random(100 + n)
    for trial in range(40 if n < 5 else 16):
        if trial % 2:
            P, q = lattice_instance(rng, n)
        else:
            P = gram_instance(rng, n)
            q = [rng.randint(-20, 20) for _ in range(n)]
        delta, _, _ = kernels._factor(tuple(map(tuple, P)))
        assert delta[0] == exactlin.det_bareiss(P)
        lo, hi = random_box(rng, n, 1500 if n < 6 else 800)
        if trial % 4 >= 2:
            q = tied_q(rng, P, lo, hi)
        check_against_brute(P, q, lo, hi, rng)


def test_flat_objective_keeps_lexicographic_argmin():
    """t^2 - t ties at 0 and 1; a box-centred objective ties every point
    with its mirror image; both keep the lexicographically smallest
    argmin."""
    for lo, hi in (([-4], [4]), ([0], [1]), ([1], [5]), ([-9], [0])):
        m, arg, _ = brute([[1]], [-1], lo, hi)
        assert kernels.min_quadratic_box([[1]], [-1], lo, hi) == (m, arg)
    P = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    rng = random.Random(5)
    for _ in range(30):
        lo, hi = random_box(rng, 3, 600)
        check_against_brute(P, tied_q(rng, P, lo, hi), lo, hi, rng)


def test_enumerator_exact_near_10_to_12():
    """Centres near 10^12 on Gram and lattice matrices: values near
    -10^24 and beyond, all exact."""
    rng = random.Random(29)
    big = 10**12
    for trial in range(24):
        n = rng.randint(1, 4)
        P = gram_instance(rng, n) if trial % 2 else lattice_instance(rng, n)[0]
        lo, hi = random_box(rng, n, 400)
        center = [big + rng.randint(-3, 3) for _ in range(n)]
        lo = [c + a for c, a in zip(center, lo)]
        hi = [c + b for c, b in zip(center, hi)]
        q = [-2 * sum(P[i][j] * center[j] for j in range(n)) + rng.randint(-1, 1) for i in range(n)]
        if trial % 3 == 0:
            q = tied_q(rng, P, lo, hi)
        check_against_brute(P, q, lo, hi, rng)


def test_not_positive_definite_rejected():
    for P in ([[0]], [[1, 2], [2, 1]], [[-1]]):
        with pytest.raises(ValueError):
            kernels.min_quadratic_box(P, [0] * len(P), [0] * len(P), [1] * len(P))
