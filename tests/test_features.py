import colorsys

import numpy as np
import pytest

import rfanet as rf
from rfanet.errors import ConfigurationError, DataError, FormatError
from rfanet.features import CHANNELS_PER_PATCH, LBP_BINS, encode_ppm, lbp_codes

import feature_reference
from conftest import random_image


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def test_decode_p6_minimal():
    data = b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255])
    img = rf.decode_image(data, "PPM")
    assert (img.width, img.height) == (2, 1)
    assert img.pixels.tolist() == [[[255, 0, 0], [0, 0, 255]]]


def test_decode_p5_gray_replication():
    img = rf.decode_image(b"P5\n1 1\n255\n" + bytes([128]), "PGM")
    assert img.pixels.tolist() == [[[128, 128, 128]]]


def test_decode_truncated_payload():
    data = b"P6\n4 4\n255\n" + bytes([1, 2, 3])
    with pytest.raises(FormatError, match="truncated pixel payload"):
        rf.decode_image(data, "PPM")


def test_decode_bad_maxval():
    with pytest.raises(FormatError, match="maxval"):
        rf.decode_image(b"P6\n1 1\n65535\n" + bytes(6), "PPM")


def test_decode_with_comment():
    data = b"P6\n# a comment\n1 1\n255\n" + bytes([9, 8, 7])
    assert rf.decode_image(data, "PPM").pixels.tolist() == [[[9, 8, 7]]]


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
    return rf.to_frame_tensor(img).planes[:, 0, 0]


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
    planes = rf.to_frame_tensor(rf.RawImage(5, 4, rgb)).planes
    assert planes[4] == pytest.approx(np.clip(lab[..., 0] / 100, 0, 1), abs=2e-4)
    assert planes[5] == pytest.approx(np.clip((lab[..., 1] + 128) / 255, 0, 1), abs=2e-4)
    assert planes[6] == pytest.approx(np.clip((lab[..., 2] + 128) / 255, 0, 1), abs=2e-4)


def test_planes_in_unit_interval(rng):
    img = random_image(rng, 9, 7)
    planes = rf.to_frame_tensor(img).planes
    assert planes.min() >= 0.0 and planes.max() <= 1.0


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
    frame = rf.to_frame_tensor(img)
    grid = rf.PatchGridSpec(8, 4, 4, 2)
    feat = rf.extract_frame_feature(frame, grid)
    expected_means = frame.planes[1:, 0, 0]
    for block in feat.reshape(-1, CHANNELS_PER_PATCH):
        assert block[255] == 1.0 and block[:255].sum() == 0.0
        assert block[256:] == pytest.approx(expected_means, abs=1e-12)


def test_feature_invariants(rng):
    img = random_image(rng, 16, 32)
    frame = rf.to_frame_tensor(img)
    grid = rf.PatchGridSpec(8, 4, 4, 2)
    feat = rf.extract_frame_feature(frame, grid)
    assert feat.shape == (grid.feature_dim(32, 16),)
    assert feat.min() >= 0.0 and feat.max() <= 1.0
    blocks = feat.reshape(-1, CHANNELS_PER_PATCH)
    assert blocks[:, :256].sum(axis=1) == pytest.approx(np.ones(len(blocks)), abs=1e-9)


def test_feature_is_pure(rng):
    img = random_image(rng, 16, 32)
    frame = rf.to_frame_tensor(img)
    grid = rf.PatchGridSpec(8, 4, 4, 2)
    a = rf.extract_frame_feature(frame, grid)
    b = rf.extract_frame_feature(frame, grid)
    assert np.array_equal(a, b)


def test_patch_without_interior_rejected():
    img = rf.RawImage(16, 32, np.zeros((32, 16, 3), np.uint8))
    frame = rf.to_frame_tensor(img)
    with pytest.raises(ConfigurationError, match="interior"):
        rf.extract_frame_feature(frame, rf.PatchGridSpec(2, 4, 2, 2))


# ---------------------------------------------------------------------------
# whole-plane descriptor against the per-patch reference loop
# ---------------------------------------------------------------------------

def _assert_matches_reference(frame, grid):
    got = rf.extract_frame_feature(frame, grid).reshape(-1, CHANNELS_PER_PATCH)
    want = feature_reference.extract_frame_feature(frame, grid).reshape(-1, CHANNELS_PER_PATCH)
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
        frame = rf.to_frame_tensor(random_image(rng, width, height))
        _assert_matches_reference(frame, grid)


def test_descriptor_matches_reference_on_ties(rng):
    # few gray levels give many equal neighbors, where ">=" decides the bits
    pixels = (rng.integers(0, 3, size=(32, 16, 3)) * 100).astype(np.uint8)
    _assert_matches_reference(rf.to_frame_tensor(rf.RawImage(16, 32, pixels)),
                              rf.PatchGridSpec(8, 4, 4, 2))


def test_descriptor_matches_reference_constant_frame():
    frame = rf.to_frame_tensor(rf.RawImage(64, 128, np.full((128, 64, 3), 77, np.uint8)))
    _assert_matches_reference(frame, rf.PatchGridSpec())
