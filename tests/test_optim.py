import math

import pytest

from paslab.optim import bisect_until, brent_max

from oracle import golden_max

# the library's one maximiser, and the golden-section reference that backs
# the solver's dense-search tests and the call-count comparison below
MAXIMIZERS = [golden_max, brent_max]
IDS = ["golden", "brent"]


class Recorder:
    """f wrapped so that every call and its result are kept."""

    def __init__(self, f):
        self.f = f
        self.xs = []
        self.ys = []

    def __call__(self, x):
        y = self.f(x)
        self.xs.append(x)
        self.ys.append(y)
        return y


@pytest.mark.parametrize("search", MAXIMIZERS, ids=IDS)
@pytest.mark.parametrize(
    "f, a, b, peak",
    [
        (lambda x: -((x - 0.3) ** 2), -1.0, 2.0, 0.3),
        (lambda x: math.log(x) - x, 0.1, 5.0, 1.0),
        (lambda x: -math.cosh(3.0 * (x - 7.25)), 6.0, 11.0, 7.25),
    ],
    ids=["quadratic", "log", "cosh"],
)
def test_smooth_peak_within_xtol(search, f, a, b, peak):
    xtol = 1e-6
    x, y = search(f, a, b, xtol)
    assert abs(x - peak) <= xtol
    assert y == f(x)


@pytest.mark.parametrize("f, a, b", [(lambda x: math.log(x) - x, 0.1, 5.0), (lambda x: -math.cosh(x - 2.0), 0.0, 9.0)])
def test_brent_needs_fewer_calls_than_golden_on_a_smooth_peak(f, a, b):
    golden, brent = Recorder(f), Recorder(f)
    golden_max(golden, a, b, 1e-6)
    brent_max(brent, a, b, 1e-6)
    assert len(brent.xs) < len(golden.xs) / 2


@pytest.mark.parametrize("search", MAXIMIZERS, ids=IDS)
@pytest.mark.parametrize("slope", [1.0, -1.0], ids=["upper-end", "lower-end"])
def test_maximum_at_an_end_of_the_bracket(search, slope):
    xtol = 1e-6
    x, y = search(lambda x: slope * x, 2.0, 3.0, xtol)
    end = 3.0 if slope > 0 else 2.0
    assert abs(x - end) <= xtol
    assert y == slope * x


@pytest.mark.parametrize("search", MAXIMIZERS, ids=IDS)
@pytest.mark.parametrize("f", [lambda x: 0.0, lambda x: min(x, 0.5)], ids=["flat", "shelf"])
def test_plateau_tie_goes_to_the_larger_x(search, f):
    rec = Recorder(f)
    x, y = search(rec, 0.0, 1.0, 1e-4)
    top = max(rec.ys)
    assert y == top
    assert x == max(xp for xp, yp in zip(rec.xs, rec.ys) if yp == top)
    assert x == max(rec.xs)  # every probe right of the shelf's edge ties with the best


def test_brent_key_ranks_a_tuple_valued_f():
    # the objective is the second field; the first would rank the other way
    rec = Recorder(lambda x: (-x, -((x - 0.6) ** 2), [x]))
    x, y = brent_max(rec, 0.0, 1.0, 1e-6, key=lambda r: r[1])
    assert abs(x - 0.6) <= 1e-6
    k = rec.xs.index(x)
    assert y is rec.ys[k]  # f's own result, not a recomputation
    assert rec.xs.count(x) == 1  # f is never called again at the winner
    assert len(rec.xs) == len(set(rec.xs))


def test_bisect_until_needs_a_sign_change():
    with pytest.raises(ValueError, match="no sign change"):
        bisect_until(lambda x: x * x + 1.0, -1.0, 1.0, ftol=1e-9)


@pytest.mark.parametrize("lo, hi", [(2.0, 5.0), (-1.0, 2.0)], ids=["at-lo", "at-hi"])
def test_bisect_until_exact_root_at_an_end(lo, hi):
    rec = Recorder(lambda x: x - 2.0)
    assert bisect_until(rec, lo, hi, ftol=0.0) == 2.0
    assert rec.xs == [lo, hi]


def test_bisect_until_stops_on_ftol():
    x = bisect_until(lambda x: x**3 - 2.0, 0.0, 2.0, ftol=1e-10)
    assert abs(x**3 - 2.0) <= 1e-10
