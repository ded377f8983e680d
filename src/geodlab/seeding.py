"""Deterministic derivation of independent RNG substreams.

derive_seed mixes (master seed, stream index) through the splitmix64
finalizer, giving a 64-bit seed per stream.  Both inputs must lie in
[0, 2^64), where the mixing is one-to-one in each.  The test suite pins the
reference vector derive_seed(0, 0) so the mixing can never drift silently.
"""

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    z &= MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK
    z ^= z >> 31
    return z


def derive_seed(master, index):
    """64-bit substream seed; injective on (master, index) in practice."""
    if not 0 <= master <= MASK:
        raise ValueError("master seed must be in [0, 2^64)")
    if not 0 <= index <= MASK:
        raise ValueError("stream index must be in [0, 2^64)")
    state = (master + (index + 1) * GAMMA) & MASK
    return _mix(state)
