"""The closed-form float walks of ``repro.dram.stats`` against the
Python ``+=`` fold they replace.

Every bulk accumulator (energy, busy and defense time, the device
clock, refresh deadlines, SLA sums) advances through :func:`walk_add`,
:func:`walk_add_many` or :func:`walk_reach`, so the scalar ⊂ bulk
contract holds only if each returns exactly what ``count`` sequential
additions would, bit for bit.  The generated cases cover both signs,
zeros, subnormals, exact half-grid-step ties, binade crossings, fully
absorbed steps, infinities and NaNs.  No test pins ``max_examples``:
the nightly Hypothesis profile runs ten times the tier-1 examples.
"""

import math
import struct
import time

from hypothesis import given
from hypothesis import strategies as st

from repro.dram.stats import walk_add, walk_add_many, walk_reach

_PACK = struct.Struct("<d").pack


def _fold(acc, step, count):
    for _ in range(count):
        acc += step
    return acc


def _reach(acc, step, count, bound):
    taken = 0
    while taken < count and not acc >= bound:
        acc += step
        taken += 1
    return taken


def _same(a, b):
    """Bitwise equality (tells 0.0 from -0.0, compares NaNs)."""
    return _PACK(a) == _PACK(b)


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
COUNTS = st.integers(0, 4000)


@st.composite
def grid_values(draw):
    """A value on the grid of a drawn binade: a signed 53-bit mantissa
    scaled into the subnormal range, around 1, or near overflow; often
    within a few thousand steps of a binade edge."""
    exponent = draw(
        st.one_of(
            st.integers(-1074, -1020),
            st.integers(-60, 60),
            st.integers(960, 970),
        )
    )
    mantissa = draw(
        st.one_of(
            st.integers(0, (1 << 53) - 1),
            st.integers(1, 1 << 12).map(lambda d: (1 << 53) - d),
            st.integers(0, 1 << 12).map(lambda d: (1 << 52) + d),
        )
    )
    sign = draw(st.sampled_from((-1.0, 1.0)))
    return sign * mantissa * 2.0**exponent if mantissa else 0.0


@st.composite
def walks(draw):
    """An accumulator and a step in whole, half (ties) or quarter steps
    of a grid near the accumulator's -- so the walk crosses binades and
    meets ties within a few thousand steps -- or of a much finer grid
    (steps the accumulator absorbs)."""
    acc = draw(grid_values())
    grid = math.frexp(acc)[1] - 53 if acc else -1074
    offset = draw(st.one_of(st.integers(-2, 2), st.integers(-60, -3)))
    exponent = max(-1074, grid + offset)
    steps = draw(st.integers(0, 64)) + draw(st.sampled_from((0.0, 0.5, 0.25, 0.75)))
    sign = draw(st.sampled_from((-1.0, 1.0)))
    return acc, sign * steps * 2.0**exponent


@given(acc=ANY_FLOAT, step=ANY_FLOAT, count=COUNTS)
def test_walk_add_matches_fold_on_any_floats(acc, step, count):
    assert _same(walk_add(acc, step, count), _fold(acc, step, count))


@given(walk=walks(), count=COUNTS)
def test_walk_add_matches_fold_across_binades_and_ties(walk, count):
    acc, step = walk
    assert _same(walk_add(acc, step, count), _fold(acc, step, count))


@given(
    exponent=st.one_of(st.integers(-1074, -1020), st.integers(-60, 60)),
    below=st.integers(1, 64),
    half_steps=st.integers(0, 31),
    sign=st.sampled_from((-1.0, 1.0)),
    count=st.integers(0, 400),
)
def test_walk_add_matches_fold_crossing_into_ties(
    exponent, below, half_steps, sign, count
):
    """A walk that leaves its binade with a step of an odd number of
    grid steps: that is a tie on the next binade's twice coarser grid,
    and the first sum there can be exact and odd instead of a tie."""
    grid = 2.0**exponent
    acc = sign * ((1 << 53) - below) * grid
    step = sign * (2 * half_steps + 1) * grid
    assert _same(walk_add(acc, step, count), _fold(acc, step, count))


@given(
    pairs=st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT), min_size=0, max_size=6),
    count=COUNTS,
)
def test_walk_add_many_matches_folds(pairs, count):
    accs = tuple(acc for acc, _ in pairs)
    steps = tuple(step for _, step in pairs)
    finals = walk_add_many(accs, steps, count)
    assert len(finals) == len(pairs)
    for final, acc, step in zip(finals, accs, steps):
        assert _same(final, _fold(acc, step, count))


@given(walk=walks(), count=COUNTS, data=st.data())
def test_walk_reach_matches_stepping(walk, count, data):
    acc, step = walk
    values = [acc]
    for _ in range(count):
        values.append(values[-1] + step)
    bound = data.draw(st.one_of(st.sampled_from(values), ANY_FLOAT))
    assert walk_reach(acc, step, count, bound) == _reach(acc, step, count, bound)


def test_billion_step_walks_have_known_results():
    """Closed form: a billion steps return at once, and ties settle."""
    started = time.perf_counter()
    # 2**52 + 0.5 ties to even, which is 2**52 itself: a fixed point.
    assert walk_add(2.0**52, 0.5, 10**9) == 2.0**52
    # From an odd grid point the first tie rounds up to even, and from
    # there every tie rounds back down.
    assert walk_add(2.0**52 + 1.0, 0.5, 10**9) == 2.0**52 + 2.0
    # 1.5 grid steps: each tie lands on the even neighbour, +2 a step.
    assert walk_add(2.0**52, 1.5, 10**9) == 2.0**52 + 2.0 * 10**9
    # Whole numbers are exact below 2**53; 2**53 + 1 ties back down.
    assert walk_add(0.0, 1.0, 10**9) == 1e9
    assert walk_add(2.0**53, 1.0, 10**9) == 2.0**53
    assert walk_reach(0.0, 1.0, 10**9, 123456789.5) == 123456790
    assert time.perf_counter() - started < 0.5
