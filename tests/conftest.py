import pytest

from resweil import exactfield


def _checked(reduce, packing, offsets, peaks):
    """reduce, first checking every slot of its argument at the given bit
    offsets against 2^b of the packing and recording the largest slot
    per (p, m) as a fraction of 2^b."""
    def checked(self, x):
        S = packing(self)
        slot = max((x >> t & S.mask for t in offsets(self, x)), default=0)
        if slot >> S.b:
            raise AssertionError("a slot of %d bits outgrew the value bound 2^%d"
                                 % (slot.bit_length(), S.b))
        key = (S.p, S.m)
        peaks[key] = max(peaks.get(key, 0), slot / 2 ** S.b)
        return reduce(self, x)
    return checked


@pytest.fixture
def slot_peaks(monkeypatch):
    """Check every slot `_Packed.reduce` is given, and every slot of every
    whole polynomial `_Ring.reduce` is given (a packed product, a Barrett
    quotient, a remainder), against 2^b, the value bound the
    multiply-and-shift reduction is exact under, and record the largest
    slot seen per (p, m) as a fraction of 2^b."""
    peaks = {}
    monkeypatch.setattr(exactfield._Packed, "reduce", _checked(
        exactfield._Packed.reduce, lambda S: S,
        lambda S, x: (*S.narrow, *S.high), peaks))
    monkeypatch.setattr(exactfield._Ring, "reduce", _checked(
        exactfield._Ring.reduce, lambda ring: ring.S,
        lambda ring, x: range(0, x.bit_length(), ring.S.k), peaks))
    return peaks
