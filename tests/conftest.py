import random
from functools import lru_cache

from hypothesis import settings
from hypothesis import strategies as st

from meanderkit import MeanderType
from meanderkit.core import _compositions, _index

# every property test draws the same examples on every run
settings.register_profile("seeded", derandomize=True, deadline=None)
settings.load_profile("seeded")


BRUTE_MAX_ORDER = 10


@lru_cache(maxsize=None)
def _brute_table():
    return [
        (top, bottom, _index(top, bottom))
        for n in range(1, BRUTE_MAX_ORDER + 1)
        for top in _compositions(n)
        for bottom in _compositions(n)
    ]


def brute_pairs(n_max):
    """The slow route: (top, bottom, index) of every pair of compositions of
    order <= n_max <= BRUTE_MAX_ORDER, by a component walk each, sorted by
    order and then lexicographically, top-major.  The table to
    BRUTE_MAX_ORDER is built once per session; there are 4^(n-1) pairs of
    order n, so a prefix holds the orders up to n_max."""
    assert n_max <= BRUTE_MAX_ORDER
    return _brute_table()[: (4**n_max - 1) // 3]


def random_composition(rng: random.Random, n: int) -> tuple[int, ...]:
    """Uniform composition of n via a random gap subset."""
    mask = rng.getrandbits(n - 1) if n > 1 else 0
    parts = []
    run = 1
    for bit in range(n - 1):
        if mask >> bit & 1:
            parts.append(run)
            run = 1
        else:
            run += 1
    parts.append(run)
    return tuple(parts)


def random_meander(rng: random.Random, n_max: int) -> MeanderType:
    n = rng.randint(1, n_max)
    return MeanderType(random_composition(rng, n), random_composition(rng, n))


def compositions(n: int):
    """Strategy: a composition of n, one cut-or-not draw per gap."""

    def parts(cuts):
        out, run = [], 1
        for cut in cuts:
            if cut:
                out.append(run)
                run = 0
            run += 1
        return tuple(out + [run])

    return st.lists(st.booleans(), min_size=n - 1, max_size=n - 1).map(parts)


def _pair_measures(phi, p, q, top, dims):
    """The slow route of spectrum._count_block: the measure phi[j] - phi[i]
    of every strict pair (i, j) of the block spanning p..q, taken right to
    left in a top block and left to right in a bottom block, added to dims
    with (q - p + 1) // 2 zeros for the diagonal."""
    get = dims.get
    for i in range(p, q + 1):
        fi = phi[i]
        for j in range(p, i) if top else range(i + 1, q + 1):
            e = phi[j] - fi
            dims[e] = get(e, 0) + 1
    if q > p:
        dims[0] = get(0, 0) + (q - p + 1) // 2
    return dims
