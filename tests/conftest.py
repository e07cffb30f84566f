import pytest

from resweil import exactfield


@pytest.fixture
def slot_peaks(monkeypatch):
    """Check every slot `_Packed.reduce` is given against 2^b, the value
    bound its multiply-and-shift reduction is exact under, and record the
    largest slot seen per (p, m) as a fraction of 2^b."""
    peaks = {}
    reduce = exactfield._Packed.reduce

    def checked(self, x):
        slot = max(x >> t & self.mask for t in (*self.narrow, *self.high))
        if slot >> self.b:
            raise AssertionError("a slot of %d bits outgrew the value bound 2^%d"
                                 % (slot.bit_length(), self.b))
        key = (self.p, self.m)
        peaks[key] = max(peaks.get(key, 0), slot / 2 ** self.b)
        return reduce(self, x)
    monkeypatch.setattr(exactfield._Packed, "reduce", checked)
    return peaks
