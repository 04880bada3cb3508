"""Tests for the physical column encodings."""

import numpy as np
import pytest

from repro.columnstore.compression import (
    NULL_VID,
    BitPackedVector,
    RunLengthVector,
    SparseVector,
    choose_encoding,
    compression_report,
)


@pytest.fixture(params=["bitpacked", "rle", "sparse"])
def encoding_case(request):
    rng = np.random.default_rng(3)
    if request.param == "bitpacked":
        vids = rng.integers(0, 1000, 500)
        return BitPackedVector(vids), vids
    if request.param == "rle":
        vids = np.repeat(np.arange(10), 50)
        return RunLengthVector(vids), vids
    vids = np.zeros(500, dtype=np.int64)
    vids[rng.choice(500, 20, replace=False)] = rng.integers(1, 5, 20)
    return SparseVector(vids, 0), vids


def test_decode_round_trip(encoding_case):
    encoded, vids = encoding_case
    assert np.array_equal(encoded.decode(), vids)
    assert len(encoded) == len(vids)


def test_take_matches_decode(encoding_case):
    encoded, vids = encoding_case
    positions = np.array([0, 5, 499, 250, 5])
    assert np.array_equal(encoded.take(positions), vids[positions])


def test_bitpacked_narrows_dtype():
    small = BitPackedVector(np.arange(100, dtype=np.int64))
    assert small.memory_bytes() == 100  # int8
    wide = BitPackedVector(np.array([100000], dtype=np.int64))
    assert wide.memory_bytes() == 4  # int32


def test_bitpacked_preserves_null_vid():
    vids = np.array([0, NULL_VID, 2], dtype=np.int64)
    assert np.array_equal(BitPackedVector(vids).decode(), vids)


def test_rle_run_count():
    rle = RunLengthVector(np.repeat(np.arange(4), 25))
    assert rle.run_count == 4


def test_sparse_exception_count():
    vids = np.zeros(100, dtype=np.int64)
    vids[10] = 3
    sparse = SparseVector(vids, 0)
    assert sparse.exception_count == 1
    assert sparse.default_vid == 0


def test_empty_vectors():
    for cls in (BitPackedVector, RunLengthVector):
        encoded = cls(np.empty(0, dtype=np.int64))
        assert len(encoded) == 0
        assert len(encoded.decode()) == 0


def test_choose_encoding_prefers_rle_for_sorted():
    encoded = choose_encoding(np.repeat(np.arange(5), 1000))
    assert isinstance(encoded, RunLengthVector)


def test_choose_encoding_prefers_sparse_for_skew():
    vids = np.zeros(5000, dtype=np.int64)
    vids[::97] = np.arange(len(vids[::97])) % 50 + 1
    # mostly-zero but not sorted-runs friendly at the tail
    rng = np.random.default_rng(1)
    rng.shuffle(vids)
    encoded = choose_encoding(vids)
    assert isinstance(encoded, (SparseVector, RunLengthVector))
    assert encoded.memory_bytes() < BitPackedVector(vids).memory_bytes() * 1.01


def test_choose_encoding_random_falls_back_to_bitpacked():
    rng = np.random.default_rng(5)
    vids = rng.integers(0, 100000, 2000)
    assert isinstance(choose_encoding(vids), BitPackedVector)


def test_compression_report():
    report = compression_report(BitPackedVector(np.arange(100)))
    assert report["rows"] == 100.0
    assert report["ratio"] == pytest.approx(8.0)


def _choice_by_unique(vids):
    """The encoding ``choose_encoding`` picked when it counted with
    ``np.unique``: the reference for its ``bincount`` path."""
    candidates = [BitPackedVector(vids)]
    runs = int(np.count_nonzero(vids[1:] != vids[:-1])) + 1
    if runs * 16 < candidates[0].memory_bytes():
        candidates.append(RunLengthVector(vids))
    values, counts = np.unique(vids, return_counts=True)
    top = int(counts.argmax())
    if counts[top] >= 0.6 * len(vids):
        candidates.append(SparseVector(vids, int(values[top])))
    return min(candidates, key=lambda enc: enc.memory_bytes())


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("shape", ["random", "runs", "sparse", "sparse_nulls", "tied", "wide"])
def test_choose_encoding_by_bincount_picks_what_unique_picked(shape, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3000))
    if shape == "random":
        vids = rng.integers(-1, max(n // 3, 1), n)
    elif shape == "runs":
        vids = np.repeat(rng.integers(-1, 40, 60), int(rng.integers(1, 80)))
    elif shape == "sparse":
        vids = np.where(rng.random(n) < 0.9, 7, rng.integers(0, 50, n))
    elif shape == "sparse_nulls":
        vids = np.where(rng.random(n) < 0.7, NULL_VID, rng.integers(0, 5, n))
    elif shape == "tied":  # two values at 50 % each: the tie goes to the smaller id
        vids = rng.permutation(np.repeat([3, 1], n))
    else:  # a dictionary far wider than the vector
        vids = np.where(rng.random(n) < 0.8, 10 * n, rng.integers(0, 10 * n, n))
    vids = vids.astype(np.int64)
    chosen, reference = choose_encoding(vids), _choice_by_unique(vids)
    assert type(chosen) is type(reference)
    assert np.array_equal(chosen.decode(), vids)
    if isinstance(reference, SparseVector):
        assert chosen.default_vid == reference.default_vid
