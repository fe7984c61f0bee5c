import random

from hypothesis import settings
from hypothesis import strategies as st

from meanderkit import MeanderType

# every property test draws the same examples on every run
settings.register_profile("seeded", derandomize=True, deadline=None)
settings.load_profile("seeded")


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
