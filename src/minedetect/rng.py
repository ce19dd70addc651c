"""Deterministic 64-bit PRNG for scenario generation.

The generator is SplitMix64 (Steele, Lea & Flood's mix finalizer), chosen
because the whole algorithm fits in a dozen lines of integer arithmetic and
can be re-implemented bit-for-bit in any language:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output <- z XOR (z >> 31)

The state is a counter: output k (k = 1, 2, ...) is mix(seed + k * gamma
mod 2^64), where gamma is the constant added above and mix the three lines
after it, so any run of consecutive outputs can be computed at once, as one
uint64 array expression. ``SplitMix64`` serves its scalar draws from such a
block of 1024 outputs; its vector face, ``peek(n)`` and ``advance(count)``,
hands a run of outputs to code that draws many values at once (synthgen
draws each window's flows so). Every output is the same integer the
step-by-step loop gives, so the stream above is unchanged.

Derived draws are defined exactly as:

* ``randbelow(n)`` = ``next_u64() % n`` (modulo reduction; the tiny bias is
  irrelevant here, determinism is what matters).
* ``uniform()`` = ``next_u64() >> 11`` divided by 2^53 (a float in [0, 1)).
* ``randint(a, b)`` = ``a + randbelow(b - a + 1)``.
* ``choice(seq)`` = ``seq[randbelow(len(seq))]``.

Each draw takes exactly one output; a draw that raises takes none.
Reproducing a scenario therefore needs only the seed and the documented
draw order of the generator code.

``below``, ``randint_of`` and ``uniform_of`` are ``randbelow``, ``randint``
and ``uniform`` of each output of a uint64 array, computed with the same
integer and float operations in the same order, so each element is the
float or integer the scalar draw of that output gives.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 1024  # outputs evaluated per refill
_BLOCK_STRIDE = _BLOCK * _GAMMA
_UNIT = float(1 << 53)

# _STEPS[j] = (j + 1) * gamma mod 2^64, the counter offsets within a block
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = np.uint64(11), np.uint64(27), np.uint64(30), np.uint64(31)


def _mix(z: np.ndarray) -> np.ndarray:
    """The output of each counter value in ``z``.

    Every operand is np.uint64: numpy 1.x turns uint64 mixed with a Python
    int or a signed integer into float64, which would round the outputs;
    uint64 array arithmetic wraps mod 2^64.
    """
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


class SplitMix64:
    """SplitMix64 PRNG with the standard constants."""

    def __init__(self, seed: int):
        # _buf holds the current block's unserved outputs in reverse order,
        # so a draw is one list.pop(); _origin is the state before
        # the block's first output. An empty buffer reads as a fully served
        # block that ended at the seed.
        self._origin = (seed - _BLOCK_STRIDE) & _MASK
        self._buf: list[int] = []

    @property
    def state(self) -> int:
        """The step-by-step generator's state after the draws served so far."""
        return (self._origin + (_BLOCK - len(self._buf)) * _GAMMA) & _MASK

    def _refill(self) -> list[int]:
        self._origin = (self._origin + _BLOCK_STRIDE) & _MASK
        self._buf = buf = _mix(_STEPS + np.uint64(self._origin))[::-1].tolist()
        return buf

    def peek(self, n: int) -> np.ndarray:
        """The next ``n`` outputs as a uint64 array; none is taken (see advance)."""
        steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        return _mix(steps + np.uint64(self.state))

    def advance(self, count: int) -> None:
        """Take the next ``count`` outputs unseen, as ``count`` draws would."""
        if count < 0:
            raise ValueError("advance() needs count >= 0")
        buf = self._buf
        if count <= len(buf):
            del buf[len(buf) - count :]
        else:  # an empty buffer reads as a block that ended at the new state
            self._origin = (self.state + count * _GAMMA - _BLOCK_STRIDE) & _MASK
            self._buf = []

    def next_u64(self) -> int:
        buf = self._buf or self._refill()
        return buf.pop()

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randbelow() needs n >= 1")
        buf = self._buf or self._refill()
        return buf.pop() % n

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b], both ends inclusive."""
        if b < a:
            raise ValueError("randint() needs a <= b")
        buf = self._buf or self._refill()
        return a + buf.pop() % (b - a + 1)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        buf = self._buf or self._refill()
        return lo + (hi - lo) * ((buf.pop() >> 11) / _UNIT)

    def choice(self, seq):
        if not seq:
            raise ValueError("choice() from an empty sequence")
        buf = self._buf or self._refill()
        return seq[buf.pop() % len(seq)]


def below(x: np.ndarray, n) -> np.ndarray:
    """``randbelow(n)`` of each output in ``x``, as int64; ``n`` (>= 1, < 2**63) may be an array."""
    return (x % np.asarray(n, np.uint64)).astype(np.int64)


def randint_of(x: np.ndarray, a, b) -> np.ndarray:
    """``randint(a, b)`` of each output in ``x``, as int64; ``a`` and ``b`` may be arrays."""
    return a + below(x, b - a + 1)


def uniform_of(x: np.ndarray, lo, hi) -> np.ndarray:
    """``uniform(lo, hi)`` of each output in ``x``; ``lo`` and ``hi`` may be float arrays."""
    return lo + (hi - lo) * ((x >> _S11).astype(np.float64) / _UNIT)
