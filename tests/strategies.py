"""Hypothesis strategies shared by the file-format tests."""

from hypothesis import strategies as st


def damaged(good: bytes):
    """``good`` cut at a random point, or with 1-4 random bytes XOR-ed."""
    def flip(changes):
        buf = bytearray(good)
        for at, mask in changes:
            buf[at] ^= mask
        return bytes(buf)

    cut = st.integers(0, len(good) - 1).map(lambda n: good[:n])
    flips = st.lists(st.tuples(st.integers(0, len(good) - 1), st.integers(1, 255)),
                     min_size=1, max_size=4).map(flip)
    return st.one_of(cut, flips)
