"""SplitMix64: published vectors and a draw-for-draw differential run
against the step-by-step oracle in ``oracles.splitmix64_naive``."""

import numpy as np
import pytest

from minedetect.rng import SplitMix64, below, randint_of, uniform_of

from oracles import splitmix64_naive


@pytest.mark.parametrize("seed, outputs", [
    (1234567, [6457827717110365317, 3203168211198807973, 9817491932198370423]),
    (0, [16294208416658607535, 7960286522194355700, 487617019471545679]),
])
def test_published_vectors(seed, outputs):
    for rng in (SplitMix64(seed), splitmix64_naive(seed)):
        assert [rng.next_u64() for _ in outputs] == outputs


def _draw(rng, i):
    """Draw number ``i`` of an interleaving of all five draw kinds, with
    bounds from 1 to beyond 2**64 and ranges that cross zero."""
    kind, j = i % 5, i // 5
    if kind == 0:
        return rng.next_u64()
    if kind == 1:
        return rng.randbelow((1, 2, 7, 1000, 2**64 + 3)[j % 5])
    if kind == 2:
        return rng.randint(*((-5, 5), (0, 0), (1024, 65535), (-(2**70), 2**70))[j % 4])
    if kind == 3:
        return rng.uniform() if j % 2 else rng.uniform(-3.5, 1e6)
    return rng.choice(("a",) if j % 3 == 0 else tuple(range(j % 11 + 2)))


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, -1, 2**64 + 5])
def test_draws_match_step_by_step_oracle_across_blocks(seed):
    rng, oracle = SplitMix64(seed), splitmix64_naive(seed)
    assert rng.state == oracle.state == seed % 2**64
    for i in range(3 * 1024 + 300):  # at least three refills past the first block
        got, want = _draw(rng, i), _draw(oracle, i)
        assert type(got) is type(want) and got == want, i
        assert rng.state == oracle.state, i


@pytest.mark.parametrize("served", [0, 5, 1024])  # empty buffer, mid-block, block end
@pytest.mark.parametrize("call, message", [
    (lambda r: r.randbelow(0), r"randbelow\(\) needs n >= 1"),
    (lambda r: r.randint(2, 1), r"randint\(\) needs a <= b"),
    (lambda r: r.choice([]), r"choice\(\) from an empty sequence"),
])
def test_failing_draw_raises_and_takes_no_output(served, call, message):
    rng, oracle = SplitMix64(99), splitmix64_naive(99)
    for _ in range(served):
        assert rng.next_u64() == oracle.next_u64()
    for gen in (rng, oracle):
        with pytest.raises(ValueError, match=message):
            call(gen)
    assert rng.state == oracle.state
    assert rng.next_u64() == oracle.next_u64()


def test_state_is_read_only():
    with pytest.raises(AttributeError):
        SplitMix64(1).state = 5


# ---------------------------------------------------------------------------
# the vector face: peek, advance and the array draws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("served", [0, 5, 1000, 1024, 1030])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_peek_equals_the_next_scalar_outputs_across_a_block_boundary(seed, served):
    rng, oracle = SplitMix64(seed), splitmix64_naive(seed)
    for _ in range(served):
        assert rng.next_u64() == oracle.next_u64()
    block = rng.peek(100)  # crosses the 1024-output boundary from 1000 served on
    assert block.dtype == np.uint64
    assert rng.state == oracle.state  # a peek takes nothing
    assert block.tolist() == [oracle.next_u64() for _ in range(100)]
    rng.advance(100)
    assert rng.state == oracle.state
    assert rng.next_u64() == oracle.next_u64()


def test_peek_and_advance_of_0_take_nothing():
    rng, oracle = SplitMix64(7), splitmix64_naive(7)
    rng.next_u64(), oracle.next_u64()
    block = rng.peek(0)
    assert block.dtype == np.uint64 and block.shape == (0,)
    rng.advance(0)
    assert rng.state == oracle.state
    assert rng.next_u64() == oracle.next_u64()
    with pytest.raises(ValueError, match=r"advance\(\) needs count >= 0"):
        rng.advance(-1)
    assert rng.next_u64() == oracle.next_u64()


@pytest.mark.parametrize("seed", [3, 2**63])
def test_scalar_and_vector_draws_interleave(seed):
    rng, oracle = SplitMix64(seed), splitmix64_naive(seed)
    # peeks longer than, shorter than and equal to the part advanced past,
    # within and across blocks, between runs of scalar draws
    for i, (n, taken) in enumerate([(3, 3), (50, 20), (900, 900), (5, 0), (2000, 1500), (1, 1)]):
        for j in range(i * 7):
            assert _draw(rng, j) == _draw(oracle, j)
        assert rng.peek(n).tolist()[:taken] == [oracle.next_u64() for _ in range(taken)]
        rng.advance(taken)
        assert rng.state == oracle.state
    assert [_draw(rng, j) for j in range(2100)] == [_draw(oracle, j) for j in range(2100)]


class splitmix64_naive_serving(splitmix64_naive):
    """The oracle's derived draws of one given output."""

    def __init__(self, output: int):
        self.output = output

    def next_u64(self) -> int:
        return self.output


def test_array_draws_equal_the_scalar_draws_of_each_output():
    x = SplitMix64(11).peek(3000)
    outputs = x.tolist()
    lo = np.array([0.0, -3.5, 0.2, 40.5] * 750)
    hi = np.array([0.8, 1e6, 2.0, 54.0] * 750)
    a = np.array([0, -5, 1024, 150] * 750, np.int64)
    b = np.array([0, 5, 65535, 400] * 750, np.int64)

    def scalar(draw, *args):
        return [getattr(splitmix64_naive_serving(v), draw)(*args) for v in outputs]

    assert below(x, 10).dtype == np.int64
    assert below(x, 10).tolist() == scalar("randbelow", 10)
    assert randint_of(x, 1024, 65535).tolist() == scalar("randint", 1024, 65535)
    assert randint_of(x, a, b).tolist() == [
        splitmix64_naive_serving(v).randint(p, q) for v, p, q in zip(outputs, a.tolist(), b.tolist())
    ]
    # bit for bit: float.hex tells -0.0 from 0.0 and shows every bit
    assert list(map(float.hex, uniform_of(x, 0.0, 48.0).tolist())) == list(
        map(float.hex, scalar("uniform", 0.0, 48.0))
    )
    assert list(map(float.hex, uniform_of(x, lo, hi).tolist())) == [
        float.hex(splitmix64_naive_serving(v).uniform(p, q))
        for v, p, q in zip(outputs, lo.tolist(), hi.tolist())
    ]

