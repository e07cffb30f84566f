import pytest

from resweil import exactfield


def _checked(reduce, packing, largest, peaks):
    """reduce, first checking the largest slot of its argument, as
    largest reads it, against 2^b of the packing and recording it per
    (p, m) as a fraction of 2^b."""
    def checked(self, x):
        S = packing(self)
        slot = largest(self, x)
        if slot >> S.b:
            raise AssertionError("a slot of %d bits outgrew the value bound 2^%d"
                                 % (slot.bit_length(), S.b))
        key = (S.p, S.m)
        peaks[key] = max(peaks.get(key, 0), slot / 2 ** S.b)
        return reduce(self, x)
    return checked


def _element_largest(S, x):
    return max(x >> t & S.mask for t in (*S.narrow, *S.high))


_ABOVE = {}


def _above(x, k, j):
    """x & (bits j..k - 1 of every k-bit slot), the mask kept per (k, j)
    and grown to the longest x seen."""
    mask = _ABOVE.get((k, j), 0)
    if mask.bit_length() < x.bit_length():
        count = 2 * -(-x.bit_length() // k)
        mask = _ABOVE[k, j] = (((1 << k) - 1) ^ ((1 << j) - 1)) * (
            ((1 << count * k) - 1) // ((1 << k) - 1))
    return x & mask


def _whole_largest(W, x):
    """The largest slot of a whole polynomial rounded up to 2^L - 1, L its
    bit length: one mask of the bits from j on per bit j, read from the
    top, so a slot at or over 2^b is seen in one step."""
    k = W.S.k
    for j in range(k - 1 if _above(x, k, W.S.b) else W.S.b - 1, -1, -1):
        if _above(x, k, j):
            return (1 << j + 1) - 1
    return 0


@pytest.fixture
def slot_peaks(monkeypatch):
    """Check every slot `_Packed.reduce` is given, and every slot of every
    whole polynomial `_Whole.reduce` is given (a ring's products, Barrett
    quotients and remainders, a Euclid's pseudo-remainders), against 2^b,
    the value bound the multiply-and-shift reduction is exact under, and
    record the largest slot seen per (p, m) as a fraction of 2^b, for a
    whole polynomial rounded up to one below a power of two."""
    peaks = {}
    monkeypatch.setattr(exactfield._Packed, "reduce", _checked(
        exactfield._Packed.reduce, lambda S: S, _element_largest, peaks))
    monkeypatch.setattr(exactfield._Whole, "reduce", _checked(
        exactfield._Whole.reduce, lambda W: W.S, _whole_largest, peaks))
    return peaks
