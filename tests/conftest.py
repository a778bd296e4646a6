"""Fixtures shared by the test modules."""

import io

import pytest


class _ShortReads(io.RawIOBase):
    """A file that hands over at most ``n`` bytes per read, as a pipe or a
    network file system may; ``sizes`` records what each read returned."""

    def __init__(self, path, n):
        self.file = open(path, "rb", buffering=0)
        self.n = n
        self.sizes = []

    def readable(self):
        return True

    def readinto(self, b):
        got = self.file.readinto(memoryview(b)[:self.n])
        self.sizes.append(got)
        return got

    def close(self):
        self.file.close()
        super().close()


@pytest.fixture
def open_in_short_reads(monkeypatch):
    """``open_in_short_reads(module, n)`` makes ``module`` open every file as
    ``_ShortReads`` of ``n`` bytes and returns the list of files it opened."""

    def patch(module, n):
        opened = []

        def short_open(path, mode="r", buffering=-1):
            opened.append(_ShortReads(path, n))
            return opened[-1]

        monkeypatch.setattr(module + ".open", short_open, raising=False)
        return opened

    return patch
