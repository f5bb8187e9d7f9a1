"""Seeded mutations of valid PPM (P6) and PGM (P5) frames, RFANET01 and
RFAEMB1 files and a dataset manifest.

Each mutant is the valid file with a few bytes flipped, cut short at some
byte, or with a few random bytes inserted; about half of the flips land in
the header. Every mutant must load, or end in an RfaError, with no other
exception and no warning. A few mutants that a sweep found, or that a
reader is known to be sensitive to, are pinned besides the seeded ones,
each with whether it loads.
"""

import hashlib
import random
import struct
import warnings

import numpy as np
import pytest

import rfanet as rf
from rfanet.errors import RfaError

CASES = 300
HEADER_BYTES = 32


def _mutants(data, seed):
    rnd = random.Random(seed)
    for _ in range(CASES):
        buf = bytearray(data)
        kind = rnd.randrange(3)
        if kind == 0:
            for _ in range(rnd.randint(1, 4)):
                end = HEADER_BYTES if rnd.random() < 0.5 else len(buf)
                buf[rnd.randrange(end)] ^= 1 << rnd.randrange(8)
        elif kind == 1:
            del buf[rnd.randrange(len(buf)) :]
        else:
            pos = rnd.randrange(len(buf) + 1)
            buf[pos:pos] = rnd.randbytes(rnd.randint(1, 8))
        yield bytes(buf)


def _with_bits(data, offset, fmt, bits):
    return data[:offset] + struct.pack(fmt, bits) + data[offset + struct.calcsize(fmt) :]


def _pnm_file(path, magic):
    channels = {b"P6": 3, b"P5": 1}[magic]
    pixels = np.random.default_rng(4).integers(0, 256, 4 * 6 * channels, np.uint8).tobytes()
    pinned = [
        (magic + b" 4#width\n6 255\n" + pixels, True),  # a comment right after a number
        (magic + b"\n+4 6\n255\n" + pixels, False),  # int() reads "+4" and "0_6", but
        (magic + b"\n4 0_6\n255\n" + pixels, False),  # a field is decimal digits only
        (magic + b"\n4 6\n# to the end of the file", False),
        (magic + b"\n4 6\n255", False),  # no whitespace byte after maxval
    ]
    return magic + b"\n# 4 by 6\n4 6\n255\n" + pixels, pinned


def _write(path, data):
    path.write_bytes(data)
    return path


def _model_file(path):
    rf.save_model(path, rf.init_model(5, 4, 3, seed=8, peephole="diagonal"))
    data = path.read_bytes()
    # the first entry of W_i, just after the 21-byte header
    pinned = [(_with_bits(data, 21, "<Q", bits), False)
              for bits in (0x7FF0000000000001, 0x7FF8000000000000, 0x7FF0000000000000)]
    return data, pinned


def _embedding_file(path):
    rng = np.random.default_rng(3)
    rf.write_embeddings(path, [rf.SequenceEmbedding(rng.standard_normal(4), k, k % 2)
                               for k in range(3)])
    data = path.read_bytes()
    # the first value of record 0: 15 header bytes, then a 5-byte id and camera.
    # The signalling NaN made the float32 -> float64 cast warn before the check
    pinned = [(_with_bits(data, 20, "<I", bits), False)
              for bits in (0x7F800001, 0x7FC00000, 0xFF800000)]
    # no records, whatever the dimension: numpy refuses a record dtype over 2 GiB
    pinned.append((b"RFAEMB1" + struct.pack("<II", 2**32 - 1, 0), True))
    return data, pinned


def _manifest_file(path):
    # the frames next to the manifest, where the mutants' paths lead
    dataset = rf.generate_synthetic(3, 2, width=4, height=6, noise_pool_size=2)
    data = rf.save_dataset(dataset, path.parent).read_bytes()
    first = b'"p0000/cam_a/frame_0000.ppm"'
    pinned = [(data.replace(first, b'"noise/frame_0001.ppm"'), True),  # another frame
              (data.replace(first, b'"\\u0000"'), False),  # open() refuses a NUL
              # a lone surrogate, which open() cannot encode
              (data.replace(first, b'"\\ud800"'), False)]
    return data, pinned


def _loads(read, path):
    """True when ``read`` loads ``path``, False when it raises an RfaError;
    any other exception, and any warning, propagates."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            read(path)
        except RfaError:
            return False
    return True


@pytest.mark.parametrize("build, read, seed", [
    (lambda path: _pnm_file(path, b"P6"), rf.read_image, 6003),
    (lambda path: _pnm_file(path, b"P5"), rf.read_image, 6004),
    (_model_file, rf.load_model, 6001),
    (_embedding_file, rf.read_embeddings, 6002),
    (_manifest_file, rf.load_dataset, 6005),
], ids=["PPM", "PGM", "RFANET01", "RFAEMB1", "manifest"])
def test_mutated_file_loads_or_is_an_rfa_error(tmp_path, build, read, seed):
    path = tmp_path / "valid"
    data, pinned = build(path)
    assert _loads(read, _write(path, data))
    for mutant, loads in pinned:
        assert _loads(read, _write(path, mutant)) == loads
    loaded = 0
    for k, mutant in enumerate(_mutants(data, seed)):
        path.write_bytes(mutant)
        try:
            loaded += _loads(read, path)
        except Exception as exc:
            pytest.fail(f"mutant {k} of seed {seed}: {type(exc).__name__}: {exc}")
    assert 0 < loaded < CASES  # the sweep reaches both outcomes


def test_comment_right_after_a_number_keeps_the_pixels():
    data, _ = _pnm_file(None, b"P6")
    commented = data.replace(b"\n# 4 by 6\n4 6", b" 4#width\n6")
    assert np.array_equal(rf.decode_image(commented).pixels, rf.decode_image(data).pixels)


@pytest.mark.parametrize("build, digest", [
    (_model_file, "8aa6587653c70d2fcfee84300fa91093"),
    (_embedding_file, "8b4749bf92b4b2fdfafb1901835bc52d"),
], ids=["RFANET01", "RFAEMB1"])
def test_writers_keep_their_bytes(tmp_path, build, digest):
    data, _ = build(tmp_path / "written")
    assert hashlib.md5(data).hexdigest() == digest
