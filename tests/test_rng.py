"""SplitMix64: published vectors and a draw-for-draw differential run
against the step-by-step oracle in ``oracles.splitmix64_naive``."""

import pytest

from minedetect.rng import SplitMix64

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
