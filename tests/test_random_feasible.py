"""Random feasible instances at a scale the fixed grids do not reach.

Colour i needs h | r_i * n, that is g | r_i with g = h / gcd(h, n), and
the r_i must sum to lam * C(n-1, h-1), which g always divides.  So every
feasible vector is g times a composition of lam * C(n-1, h-1) / g, and
drawing a random composition reaches each of them.  Every stage is
verified, and one seed must give the same bytes twice.  Hypothesis runs
derandomized, so the drawn instances are the same on every run.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypfactor import check_feasibility, construct
from hypfactor.cli import dumps_canonical, factorization_to_doc
from hypfactor.detach import Params

MAX_EDGES = 1500
MAX_N = 30
MAX_FACTORS = 40


@st.composite
def feasible_params(draw):
    h = draw(st.integers(1, 5))
    n_max = max(n for n in range(h + 1, MAX_N + 1) if math.comb(n, h) <= MAX_EDGES)
    # sampled_from draws evenly, where integers() would favour the small end
    n = draw(st.sampled_from(range(h + 1, n_max + 1)))
    lam = draw(st.sampled_from(range(1, min(3, MAX_EDGES // math.comb(n, h)) + 1)))
    g = h // math.gcd(h, n)
    total = lam * math.comb(n - 1, h - 1) // g
    cuts = set()
    if total > 1:
        cuts = draw(st.sets(st.integers(1, total - 1), max_size=min(total - 1, MAX_FACTORS - 1)))
    bounds = [0, *sorted(cuts), total]
    r = tuple(g * (b - a) for a, b in zip(bounds, bounds[1:]))
    return Params(n, h, lam, r)


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(p=feasible_params(), seed=st.integers(0, 2**31 - 1))
def test_random_feasible_instance_constructs_and_repeats(p, seed):
    assert check_feasibility(p).ok
    f = construct(p, seed=seed, check_mode="full")
    assert f.report.overall
    assert len(f.stage_reports) == p.n - 1
    assert all(rep.overall for rep in f.stage_reports)
    text = dumps_canonical(factorization_to_doc(f))
    again = construct(p, seed=seed, check_mode="full")
    assert dumps_canonical(factorization_to_doc(again)) == text
