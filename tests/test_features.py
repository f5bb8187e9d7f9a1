import colorsys
import hashlib

import numpy as np
import pytest

import rfanet as rf
import rfanet.features as features
from rfanet.errors import ConfigurationError, DataError, FormatError
from rfanet.features import CHANNELS_PER_PATCH, LBP_BINS, encode_ppm, lbp_codes

import feature_reference
from conftest import random_image


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def test_decode_p6_minimal():
    data = b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255])
    img = rf.decode_image(data)
    assert (img.width, img.height) == (2, 1)
    assert img.pixels.tolist() == [[[255, 0, 0], [0, 0, 255]]]


def test_decode_p5_gray_replication():
    img = rf.decode_image(b"P5\n1 1\n255\n" + bytes([128]))
    assert img.pixels.tolist() == [[[128, 128, 128]]]


def test_decode_truncated_payload():
    data = b"P6\n4 4\n255\n" + bytes([1, 2, 3])
    with pytest.raises(FormatError, match="truncated pixel payload"):
        rf.decode_image(data)


def test_decode_bad_maxval():
    with pytest.raises(FormatError, match="maxval"):
        rf.decode_image(b"P6\n1 1\n65535\n" + bytes(6))


def test_decode_with_comment():
    data = b"P6\n# a comment\n1 1\n255\n" + bytes([9, 8, 7])
    assert rf.decode_image(data).pixels.tolist() == [[[9, 8, 7]]]


@pytest.mark.parametrize("data", [b"P3\n1 1\n255\n9 8 7\n", b"BM" + bytes(8), b"P", b""],
                         ids=["ascii-ppm", "bmp", "one-byte", "empty"])
def test_decode_unknown_magic(data):
    with pytest.raises(FormatError, match="unrecognized image magic") as exc:
        rf.decode_image(data)
    assert exc.value.offset == 0


def test_ppm_roundtrip(rng, tmp_path):
    img = random_image(rng, 6, 3)
    path = tmp_path / "img.ppm"
    path.write_bytes(encode_ppm(img))
    assert np.array_equal(rf.read_image(path).pixels, img.pixels)


# ---------------------------------------------------------------------------
# resize
# ---------------------------------------------------------------------------

def test_resize_constant_color():
    img = rf.RawImage(3, 2, np.full((2, 3, 3), 42, np.uint8))
    out = rf.resize_bilinear(img, 7, 5)
    assert out.pixels.shape == (5, 7, 3)
    assert np.all(out.pixels == 42)


def test_resize_identity(rng):
    img = random_image(rng, 8, 6)
    out = rf.resize_bilinear(img, 8, 6)
    assert np.array_equal(out.pixels, img.pixels)


def test_resize_checkerboard_to_single_pixel():
    # bilinear at the half-pixel center of a 2x2 0/255 checkerboard is 127.5,
    # which rounds to 128
    board = np.zeros((2, 2, 3), np.uint8)
    board[0, 1] = board[1, 0] = 255
    out = rf.resize_bilinear(rf.RawImage(2, 2, board), 1, 1)
    assert np.all(out.pixels == 128)


def test_resize_rejects_empty_target():
    img = rf.RawImage(2, 2, np.zeros((2, 2, 3), np.uint8))
    with pytest.raises(DataError):
        rf.resize_bilinear(img, 0, 1)


# ---------------------------------------------------------------------------
# color conversion
# ---------------------------------------------------------------------------

def _single_color_planes(r, g, b):
    img = rf.RawImage(1, 1, np.array([[[r, g, b]]], np.uint8))
    return rf.to_frame_tensor(img)[:, 0, 0]


def test_tensor_black():
    planes = _single_color_planes(0, 0, 0)
    assert planes[:5] == pytest.approx([0, 0, 0, 0, 0], abs=1e-12)
    # a* and b* are 0 at black, mapping to 128/255
    assert planes[5] == pytest.approx(128 / 255, abs=1e-3)
    assert planes[6] == pytest.approx(128 / 255, abs=1e-3)


def test_tensor_white():
    planes = _single_color_planes(255, 255, 255)
    assert planes[0] == pytest.approx(1.0, abs=1e-9)
    assert planes[2] == 0.0  # S
    assert planes[3] == 1.0  # V
    assert planes[4] == pytest.approx(1.0, abs=1e-6)  # L*


def test_tensor_red():
    planes = _single_color_planes(255, 0, 0)
    assert planes[1] == 0.0  # H
    assert planes[2] == 1.0
    assert planes[3] == 1.0


def test_hsv_matches_colorsys(rng):
    for _ in range(200):
        r, g, b = rng.integers(0, 256, 3)
        planes = _single_color_planes(r, g, b)
        h, s, v = colorsys.rgb_to_hsv(r / 255, g / 255, b / 255)
        assert planes[1] == pytest.approx(h, abs=1e-9)
        assert planes[2] == pytest.approx(s, abs=1e-9)
        assert planes[3] == pytest.approx(v, abs=1e-9)


def test_lab_matches_skimage(rng):
    skimage_color = pytest.importorskip("skimage.color")
    rgb = rng.integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
    lab = skimage_color.rgb2lab(rgb / 255.0)
    planes = rf.to_frame_tensor(rf.RawImage(5, 4, rgb))
    assert planes[4] == pytest.approx(np.clip(lab[..., 0] / 100, 0, 1), abs=2e-4)
    assert planes[5] == pytest.approx(np.clip((lab[..., 1] + 128) / 255, 0, 1), abs=2e-4)
    assert planes[6] == pytest.approx(np.clip((lab[..., 2] + 128) / 255, 0, 1), abs=2e-4)


def test_planes_in_unit_interval(rng):
    img = random_image(rng, 9, 7)
    planes = rf.to_frame_tensor(img)
    assert planes.min() >= 0.0 and planes.max() <= 1.0


# ---------------------------------------------------------------------------
# resize and color conversion against the frozen whole-pixel reference
# ---------------------------------------------------------------------------

def _color_cube():
    """Every colour of 64 levels per channel, the sRGB knee (10, 11) and both
    ends (0, 254, 255) among them: (64**3, 3) uint8."""
    levels = np.union1d(np.linspace(0, 255, 61).astype(np.uint8), [10, 11, 254])
    assert levels.size == 64
    return np.stack(np.meshgrid(levels, levels, levels, indexing="ij"), -1).reshape(-1, 3)


def _tied_maxima():
    """Every tied maximum (a, a, c), (c, a, a), (a, c, a) and every gray
    (a, a, a), for 0 <= c <= a <= 255: (4 * 32,896, 3) uint8."""
    a, c = np.nonzero(np.tri(256, dtype=bool))
    patterns = [(a, a, c), (c, a, a), (a, c, a), (a, a, a)]
    return np.concatenate([np.stack(p, -1) for p in patterns]).astype(np.uint8)


def _assert_tensor_matches_reference(pixels):
    got = rf.to_frame_tensor(pixels)
    assert got.tobytes() == feature_reference.to_frame_tensor(pixels).tobytes()


@pytest.mark.parametrize("T", [1, 16])
def test_color_cube_matches_reference(T):
    _assert_tensor_matches_reference(_color_cube().reshape(T, -1, 64, 3))


def test_all_grays_match_reference():
    grays = np.repeat(np.arange(256, dtype=np.uint8), 3).reshape(16, 16, 3)
    _assert_tensor_matches_reference(grays)
    _assert_tensor_matches_reference(rf.RawImage(16, 16, grays).pixels[None])


@pytest.mark.parametrize("T", [1, 16])
def test_tied_maxima_match_reference(T):
    _assert_tensor_matches_reference(_tied_maxima().reshape(T, -1, 8, 3))


@pytest.mark.parametrize("T", [None, 1, 16])
def test_resize_matches_reference(rng, T):
    shape = (32, 16, 3) if T is None else (T, 32, 16, 3)
    pixels = rng.integers(0, 256, size=shape, dtype=np.uint8)
    img = rf.RawImage(16, 32, pixels) if T is None else pixels
    same = rf.resize_bilinear(img, 16, 32)
    assert same is img  # documented: a same-size resize returns its input
    same = same.pixels if T is None else same
    assert same.tobytes() == feature_reference.resize_bilinear(pixels, 16, 32).tobytes()
    assert same.tobytes() == pixels.tobytes()
    for out_w, out_h in ((21, 25), (11, 39)):  # +5/-7 pixels, and the other way
        real = rf.resize_bilinear(img, out_w, out_h)
        real = real.pixels if T is None else real
        want = feature_reference.resize_bilinear(pixels, out_w, out_h)
        assert real.shape == want.shape and real.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# LBP
# ---------------------------------------------------------------------------

def test_lbp_uniform_plane_all_ties():
    plane = np.full((5, 5), 0.3)
    assert lbp_codes(plane)[1, 1] == 255


def test_lbp_center_strictly_greater():
    plane = np.zeros((3, 3))
    plane[1, 1] = 1.0
    assert lbp_codes(plane)[0, 0] == 0


def test_lbp_worked_example():
    # clockwise from top-left: 1,2,3,4,9,8,7,6 around center 5 -> 00001111
    plane = np.array([[1.0, 2.0, 3.0], [6.0, 5.0, 4.0], [7.0, 8.0, 9.0]])
    assert lbp_codes(plane)[0, 0] == 15


def test_lbp_out_of_bounds():
    # a plane with fewer than 3 rows has no pixel with a full 3x3 neighborhood
    with pytest.raises(DataError):
        lbp_codes(np.zeros((2, 4)))


def _naive_lbp(plane, row, col):
    center = plane[row, col]
    bits = [
        plane[row - 1, col - 1], plane[row - 1, col], plane[row - 1, col + 1],
        plane[row, col + 1], plane[row + 1, col + 1], plane[row + 1, col],
        plane[row + 1, col - 1], plane[row, col - 1],
    ]
    code = 0
    for v in bits:
        code = (code << 1) | (1 if v >= center else 0)
    return code


def test_lbp_vectorized_matches_naive(rng):
    for _ in range(50):
        plane = rng.random((12, 20))
        codes = lbp_codes(plane)
        for row in range(1, 11):
            for col in range(1, 19):
                assert codes[row - 1, col - 1] == _naive_lbp(plane, row, col)


# ---------------------------------------------------------------------------
# patch grid descriptor
# ---------------------------------------------------------------------------

def test_default_grid_dimensions():
    grid = rf.PatchGridSpec()
    assert grid.num_patches(128, 64) == 225
    assert grid.feature_dim(128, 64) == 58950


def test_small_grid_arithmetic():
    # 32x16 frame, 16x8 patches, strides 8/4: 3x3 = 9 patches
    grid = rf.PatchGridSpec(16, 8, 8, 4)
    assert grid.num_patches(32, 16) == 9
    assert grid.feature_dim(32, 16) == 9 * 262 == 2358


def test_grid_must_cover_exactly():
    with pytest.raises(ConfigurationError, match="cover"):
        rf.PatchGridSpec(16, 8, 8, 4).validate_for(33, 16)


def test_constant_frame_feature():
    img = rf.RawImage(16, 32, np.full((32, 16, 3), 200, np.uint8))
    planes = rf.to_frame_tensor(img)
    grid = rf.PatchGridSpec(8, 4, 4, 2)
    feat = rf.sequence_features([img], grid, 16, 32)[0]
    expected_means = planes[1:, 0, 0]
    for block in feat.reshape(-1, CHANNELS_PER_PATCH):
        assert block[255] == 1.0 and block[:255].sum() == 0.0
        assert block[256:] == pytest.approx(expected_means, abs=1e-12)


def test_feature_invariants(rng):
    img = random_image(rng, 16, 32)
    grid = rf.PatchGridSpec(8, 4, 4, 2)
    feat = rf.sequence_features([img], grid, 16, 32)[0]
    assert feat.shape == (grid.feature_dim(32, 16),)
    assert feat.min() >= 0.0 and feat.max() <= 1.0
    blocks = feat.reshape(-1, CHANNELS_PER_PATCH)
    assert blocks[:, :256].sum(axis=1) == pytest.approx(np.ones(len(blocks)), abs=1e-9)


def test_feature_is_pure(rng):
    img = random_image(rng, 16, 32)
    grid = rf.PatchGridSpec(8, 4, 4, 2)
    a = rf.sequence_features([img], grid, 16, 32)[0]
    b = rf.sequence_features([img], grid, 16, 32)[0]
    assert np.array_equal(a, b)


def test_patch_without_interior_rejected():
    with pytest.raises(ConfigurationError, match="interior"):
        rf.PatchGridSpec(2, 4, 2, 2)


def test_patch_assigned_without_interior_rejected_before_describing():
    grid = rf.PatchGridSpec(8, 4, 4, 2)
    grid.patch_w = 2
    img = rf.RawImage(16, 32, np.zeros((32, 16, 3), np.uint8))
    with pytest.raises(ConfigurationError, match="interior"):
        rf.describe_frames([img], grid, 16, 32)


# ---------------------------------------------------------------------------
# whole-plane descriptor against the per-patch reference loop
# ---------------------------------------------------------------------------

def _assert_matches_reference(img, grid):
    """The descriptor of ``img``, at its own size, against the reference loop."""
    got = rf.sequence_features([img], grid, img.width, img.height)
    got = got.reshape(-1, CHANNELS_PER_PATCH)
    want = feature_reference.extract_frame_feature(rf.to_frame_tensor(img), grid)
    want = want.reshape(-1, CHANNELS_PER_PATCH)
    assert got.shape == want.shape
    assert np.array_equal(got[:, :LBP_BINS], want[:, :LBP_BINS])
    assert np.max(np.abs(got[:, LBP_BINS:] - want[:, LBP_BINS:])) <= 1e-12


@pytest.mark.parametrize(
    "height, width, grid",
    [
        (32, 16, rf.PatchGridSpec(8, 4, 4, 2)),     # desk geometry
        (128, 64, rf.PatchGridSpec()),              # full geometry
        (29, 19, rf.PatchGridSpec(9, 7, 4, 3)),     # strides do not divide the patch
        (9, 7, rf.PatchGridSpec(3, 3, 2, 2)),       # one interior pixel per patch
        (20, 12, rf.PatchGridSpec(20, 12, 1, 1)),   # a single patch, the whole frame
    ],
)
def test_descriptor_matches_reference_loop(rng, height, width, grid):
    for _ in range(3):
        _assert_matches_reference(random_image(rng, width, height), grid)


def test_descriptor_matches_reference_on_ties(rng):
    # few gray levels give many equal neighbors, where ">=" decides the bits
    pixels = (rng.integers(0, 3, size=(32, 16, 3)) * 100).astype(np.uint8)
    _assert_matches_reference(rf.RawImage(16, 32, pixels), rf.PatchGridSpec(8, 4, 4, 2))


def test_descriptor_matches_reference_constant_frame():
    img = rf.RawImage(64, 128, np.full((128, 64, 3), 77, np.uint8))
    _assert_matches_reference(img, rf.PatchGridSpec())


@pytest.mark.parametrize("size, dtype", [(17, np.uint8), (18, np.uint16)])
def test_store_counts_hold_a_whole_patch_interior(size, dtype):
    # a uniform frame codes every interior pixel 255, so one size x size patch
    # puts (size - 2)^2 codes in one bin: 256 at size 18, which a uint8 count
    # would wrap to 0
    img = rf.RawImage(size, size, np.full((size, size, 3), 90, np.uint8))
    grid = rf.PatchGridSpec(size, size, 1, 1)
    store = rf.describe_frames([img], grid, size, size)
    assert store.counts.dtype == dtype
    assert store.counts[0, 0, 255] == (size - 2) ** 2
    _assert_matches_reference(img, grid)


def test_store_is_under_a_sixth_of_the_float64_rows_at_full_geometry(rng):
    images = [random_image(rng, 64, 128) for _ in range(3)]
    store = rf.describe_frames(images, rf.PatchGridSpec(), 64, 128)
    assert store.counts.dtype == np.uint8  # 84 interior pixels per 16x8 patch
    dense = store.expand()
    assert dense.shape == (3, 58950)
    assert 6 * (store.counts.nbytes + store.color.nbytes) <= dense.nbytes
    _assert_rows_match_per_frame(images, dense, rf.PatchGridSpec(), 64, 128)


# ---------------------------------------------------------------------------
# frame stacks against the per-frame path
# ---------------------------------------------------------------------------

def _assert_rows_match_per_frame(images, feats, grid, width, height):
    """Row t equals frame t described alone, exactly, and its blocks equal the
    per-patch reference loop (histograms exactly, color means within 1e-12)."""
    assert feats.shape == (len(images), grid.feature_dim(height, width))
    for img, row in zip(images, feats):
        assert row.tobytes() == rf.sequence_features([img], grid, width, height)[0].tobytes()
        planes = rf.to_frame_tensor(rf.resize_bilinear(img, width, height))
        got = row.reshape(-1, CHANNELS_PER_PATCH)
        want = feature_reference.extract_frame_feature(planes, grid).reshape(got.shape)
        assert np.array_equal(got[:, :LBP_BINS], want[:, :LBP_BINS])
        assert np.max(np.abs(got[:, LBP_BINS:] - want[:, LBP_BINS:])) <= 1e-12


@pytest.mark.parametrize("height, width, grid", [
    (32, 16, rf.PatchGridSpec(8, 4, 4, 2)),     # desk geometry
    (128, 64, rf.PatchGridSpec()),              # full geometry
], ids=["desk", "full"])
def test_stacked_sequence_matches_per_frame_reference(rng, height, width, grid):
    # inputs of another size, so that the stacked resize does real work
    images = [random_image(rng, width + 5, height - 7) for _ in range(6)]
    feats = rf.sequence_features(images, grid, width, height)
    _assert_rows_match_per_frame(images, feats, grid, width, height)


def test_mixed_size_sequence_keeps_frame_order(rng, monkeypatch):
    # three input sizes interleaved, and a stack cap of three 32x16 frames
    # that splits the seven frames of the largest group into 3, 3 and 1
    monkeypatch.setattr(features, "_STACK_PIXELS", 3 * 32 * 16)
    sizes = [(16, 32), (20, 40), (16, 32), (9, 14), (20, 40), (16, 32), (16, 32),
             (9, 14), (16, 32), (20, 40), (16, 32), (16, 32)]
    images = [random_image(rng, w, h) for w, h in sizes]
    grid = rf.PatchGridSpec(8, 4, 4, 2)
    feats = rf.sequence_features(images, grid, 16, 32)
    _assert_rows_match_per_frame(images, feats, grid, 16, 32)
    # the same frames in another order give the same rows, permuted
    order = rng.permutation(len(images))
    again = rf.sequence_features([images[k] for k in order], grid, 16, 32)
    assert again.tobytes() == feats[order].tobytes()


def test_stack_stages_match_single_frames(rng):
    images = [random_image(rng, 11, 17) for _ in range(4)]
    pixels = np.stack([img.pixels for img in images])
    resized = rf.resize_bilinear(pixels, 16, 32)
    planes = rf.to_frame_tensor(resized)
    assert planes.shape == (4, 7, 32, 16)
    codes = lbp_codes(planes[:, 0])
    for t, img in enumerate(images):
        one = rf.resize_bilinear(img, 16, 32)
        assert np.array_equal(resized[t], one.pixels)
        assert planes[t].tobytes() == rf.to_frame_tensor(one).tobytes()
        assert np.array_equal(codes[t], lbp_codes(planes[t, 0]))


def test_empty_sequence_has_no_rows():
    grid = rf.PatchGridSpec(8, 4, 4, 2)
    assert rf.sequence_features([], grid, 16, 32).shape == (0, grid.feature_dim(32, 16))


# ---------------------------------------------------------------------------
# golden descriptor digests
# ---------------------------------------------------------------------------

def _golden_frames(case):
    """Seeded frames for one golden case: uniform noise plus smooth synthetic
    persons, at the target size and, in "mixed", interleaved with frames of
    another size that the pipeline resizes."""
    rng = np.random.default_rng(5150)
    if case == "full":
        people = rf.generate_synthetic(1, 2, width=64, height=128, appearance_seed=21)
        return [random_image(rng, 64, 128) for _ in range(2)] + people.persons[0].frames_a
    people = rf.generate_synthetic(2, 3, width=16, height=32, appearance_seed=20)
    smooth = [img for p in people.persons for img in p.frames_a + p.frames_b]
    noise = [random_image(rng, 16, 32) for _ in range(6)]
    if case == "desk":
        return noise + smooth
    other = [random_image(rng, 21, 25) for _ in range(4)]
    resized = rf.generate_synthetic(1, 3, width=21, height=25, appearance_seed=22)
    other += resized.persons[0].frames_a
    mixed = []
    for k in range(len(other)):
        mixed += [other[k], noise[k % len(noise)], smooth[k]]
    return mixed


_GOLDEN = {
    "desk": (32, 16, (8, 4, 4, 2),
        "157c08aedfb7e775aa4e88847a5e5a2756afd3563a6eec9d203ce3580474364b"),
    "mixed": (32, 16, (8, 4, 4, 2),
        "9760212da904dc3d24b758b7594f61709427d660601f5f70f42624a5a16f4dd4"),
    "full": (128, 64, (16, 8, 8, 4),
        "04ce0c8ff1a0345f8ad5efe78af66e21557caf5d8090174ef252ecb98fbd8196"),
}


@pytest.mark.parametrize("case", list(_GOLDEN))
def test_sequence_features_golden_digest(case):
    # sha256 of the descriptor bytes: any change that moves one bit of any
    # descriptor of these seeded frames fails here
    height, width, grid, digest = _GOLDEN[case]
    feats = rf.sequence_features(_golden_frames(case), rf.PatchGridSpec(*grid), width, height)
    assert hashlib.sha256(feats.tobytes()).hexdigest() == digest
