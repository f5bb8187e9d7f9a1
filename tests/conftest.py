from pathlib import Path

import numpy as np
import pytest

import rfanet as rf


@pytest.fixture(scope="session")
def desk_config():
    return rf.desk_scale()


@pytest.fixture(scope="session")
def small_dataset(desk_config):
    """Shared 12-identity synthetic dataset for the sweep tests."""
    return rf.generate_synthetic(
        12, 24,
        width=desk_config.image_w, height=desk_config.image_h,
        appearance_seed=3,
        camera_gain=(1.05, 1.0, 0.95), camera_offset=(0.05, 0.0, -0.05),
        jitter=0.02, noise_pool_size=20,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def gallery_block(monkeypatch):
    """gallery_block(k) sizes the max(G_blk, p) blocks of the RankSVM scorer
    and fit to k gallery rows; the last block holds the rest."""
    import rfanet.matching as matching

    def rows(k):
        monkeypatch.setattr(matching, "_GALLERY_BLOCK", k)

    return rows


@pytest.fixture(params=["materialized", "streamed"])
def block_sizes(request, gallery_block):
    """block_sizes(n) sets and yields each gallery-block size of an n-id fit
    in turn: one block of all n rows ("materialized", every pair of a probe
    in one block), or each size from 1 to n - 1 ("streamed")."""
    def sizes(n):
        for k in [n] if request.param == "materialized" else range(1, n):
            gallery_block(k)
            yield k

    return sizes


def random_image(rng, width, height):
    return rf.RawImage(
        width, height, rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    )


def _fail_writes_after(monkeypatch, writes_ok, only=""):
    """Make every atomic write raise ENOSPC after ``writes_ok`` write calls;
    with ``only``, just the writes to files whose name contains it."""
    import builtins

    import rfanet.fileio

    class _Failing:
        def __init__(self, fh):
            self.fh = fh
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes > writes_ok:
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

    def failing_open(path, mode):
        fh = builtins.open(path, mode)
        return _Failing(fh) if only in Path(path).name else fh

    monkeypatch.setattr(rfanet.fileio, "open", failing_open, raising=False)


@pytest.fixture
def disk_full(monkeypatch):
    """Atomic writes run out of space on their second write call."""
    _fail_writes_after(monkeypatch, 1)


@pytest.fixture
def disk_full_at_once(monkeypatch):
    """Atomic writes run out of space on their first write call."""
    _fail_writes_after(monkeypatch, 0)
