"""Frame-level features: image decoding, bilinear resize, color conversion,
LBP texture histograms and the overlapping patch-grid descriptor.

The per-frame descriptor is built from a grid of overlapping rectangular
patches; each patch contributes a normalized 256-bin LBP histogram over the
gray plane plus the mean of the six color channels (H, S, V, L*, a*, b*).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DataError, FormatError

IMAGE_MAGIC = b"RFAIMG1\n"

LBP_BINS = 256
CHANNELS_PER_PATCH = LBP_BINS + 6

# sRGB -> XYZ (D65) matrix and white point
_RGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_WHITE = np.array([0.95047, 1.0, 1.08883])


@dataclass
class RawImage:
    """Decoded 8-bit RGB image, pixels stored as a (height, width, 3) array."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.ascontiguousarray(self.pixels, dtype=np.uint8)
        if self.width < 1 or self.height < 1:
            raise DataError("image dimensions must be >= 1")
        if self.pixels.shape != (self.height, self.width, 3):
            raise DataError(
                f"pixel buffer shape {self.pixels.shape} does not match "
                f"{self.height}x{self.width}x3"
            )


@dataclass
class FrameTensor:
    """Seven normalized scalar planes (gray, H, S, V, L*, a*, b*) in [0, 1].

    planes has shape (7, height, width).
    """

    planes: np.ndarray

    def __post_init__(self):
        self.planes = np.asarray(self.planes, dtype=np.float64)
        if self.planes.ndim != 3 or self.planes.shape[0] != 7:
            raise DataError("planes must have shape (7, height, width)")

    @property
    def height(self):
        return self.planes.shape[1]

    @property
    def width(self):
        return self.planes.shape[2]


@dataclass
class PatchGridSpec:
    """Overlapping patch grid; defaults follow the 128x64 frame layout."""

    patch_h: int = 16
    patch_w: int = 8
    stride_v: int = 8
    stride_h: int = 4
    lbp_bins: int = LBP_BINS

    def __post_init__(self):
        if self.lbp_bins != LBP_BINS:
            raise ConfigurationError("lbp_bins is fixed at 256")
        if self.stride_v < 1 or self.stride_h < 1:
            raise ConfigurationError("strides must be >= 1")
        if self.patch_h < 1 or self.patch_w < 1:
            raise ConfigurationError("patch dims must be >= 1")

    def validate_for(self, height, width):
        if self.patch_h > height or self.patch_w > width:
            raise ConfigurationError(
                f"patch {self.patch_h}x{self.patch_w} exceeds frame {height}x{width}"
            )
        if (height - self.patch_h) % self.stride_v != 0:
            raise ConfigurationError(
                f"grid does not cover frame height exactly: "
                f"({height} - {self.patch_h}) % {self.stride_v} != 0"
            )
        if (width - self.patch_w) % self.stride_h != 0:
            raise ConfigurationError(
                f"grid does not cover frame width exactly: "
                f"({width} - {self.patch_w}) % {self.stride_h} != 0"
            )

    def grid_shape(self, height, width):
        self.validate_for(height, width)
        rows = (height - self.patch_h) // self.stride_v + 1
        cols = (width - self.patch_w) // self.stride_h + 1
        return rows, cols

    def num_patches(self, height, width):
        rows, cols = self.grid_shape(height, width)
        return rows * cols

    def feature_dim(self, height, width):
        return self.num_patches(height, width) * CHANNELS_PER_PATCH


# ---------------------------------------------------------------------------
# decoding / encoding
# ---------------------------------------------------------------------------

def _parse_pnm(data, magic):
    if data[:2] != magic:
        raise FormatError(f"expected magic {magic.decode()!r}", 0)
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError("truncated header", pos)
        try:
            fields.append(int(data[start:pos]))
        except ValueError:
            raise FormatError("non-numeric header field", start) from None
    if pos >= len(data):
        raise FormatError("missing whitespace after maxval", pos)
    pos += 1  # single whitespace byte separating header from payload
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError("image dimensions must be >= 1", 2)
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} (must be 255)", pos - 1)
    return width, height, pos


def decode_image(data, fmt):
    """Decode bytes in the declared format ('PGM', 'PPM' or 'RAW') to RawImage.

    PGM (P5) input is replicated to all three channels; RAW is the package's
    own header format (magic, little-endian u32 width/height, u8 channels).
    """
    fmt = fmt.upper()
    if fmt == "PPM":
        width, height, pos = _parse_pnm(data, b"P6")
        need = width * height * 3
        if len(data) - pos < need:
            raise FormatError(
                f"truncated pixel payload: need {need} bytes, have {len(data) - pos}",
                len(data),
            )
        pixels = np.frombuffer(data, np.uint8, need, pos).reshape(height, width, 3)
        return RawImage(width, height, pixels)
    if fmt == "PGM":
        width, height, pos = _parse_pnm(data, b"P5")
        need = width * height
        if len(data) - pos < need:
            raise FormatError(
                f"truncated pixel payload: need {need} bytes, have {len(data) - pos}",
                len(data),
            )
        gray = np.frombuffer(data, np.uint8, need, pos).reshape(height, width)
        return RawImage(width, height, np.repeat(gray[:, :, None], 3, axis=2))
    if fmt == "RAW":
        if data[:8] != IMAGE_MAGIC:
            raise FormatError("bad RAW magic", 0)
        if len(data) < 17:
            raise FormatError("truncated RAW header", len(data))
        width, height, channels = struct.unpack_from("<IIB", data, 8)
        if channels not in (1, 3):
            raise FormatError(f"RAW channels must be 1 or 3, got {channels}", 16)
        if width < 1 or height < 1:
            raise FormatError("image dimensions must be >= 1", 8)
        need = width * height * channels
        if len(data) - 17 < need:
            raise FormatError(
                f"truncated pixel payload: need {need} bytes, have {len(data) - 17}",
                len(data),
            )
        raw = np.frombuffer(data, np.uint8, need, 17)
        if channels == 1:
            raw = np.repeat(raw[:, None], 3, axis=1)
        return RawImage(width, height, raw.reshape(height, width, 3))
    raise FormatError(f"unknown image format {fmt!r}")


def sniff_image_format(data):
    if data[:8] == IMAGE_MAGIC:
        return "RAW"
    if data[:2] == b"P6":
        return "PPM"
    if data[:2] == b"P5":
        return "PGM"
    raise FormatError("unrecognized image magic", 0)


def read_image(path):
    with open(path, "rb") as fh:
        data = fh.read()
    return decode_image(data, sniff_image_format(data))


def encode_ppm(img):
    header = f"P6\n{img.width} {img.height}\n255\n".encode()
    return header + img.pixels.tobytes()


def encode_raw(img):
    return IMAGE_MAGIC + struct.pack("<IIB", img.width, img.height, 3) + img.pixels.tobytes()


# ---------------------------------------------------------------------------
# resize and color conversion
# ---------------------------------------------------------------------------

def resize_bilinear(img, out_w, out_h):
    """Bilinear resize with half-pixel-centered sampling, per channel."""
    if out_w < 1 or out_h < 1:
        raise DataError("target dimensions must be >= 1")
    src = img.pixels.astype(np.float64)
    ys = np.clip((np.arange(out_h) + 0.5) * img.height / out_h - 0.5, 0, img.height - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * img.width / out_w - 0.5, 0, img.width - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, img.height - 1)
    x1 = np.minimum(x0 + 1, img.width - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    top = src[y0][:, x0] * (1 - wx) + src[y0][:, x1] * wx
    bot = src[y1][:, x0] * (1 - wx) + src[y1][:, x1] * wx
    out = top * (1 - wy) + bot * wy
    return RawImage(out_w, out_h, np.clip(np.rint(out), 0, 255).astype(np.uint8))


def _srgb_to_linear(c):
    return np.where(c > 0.04045, ((c + 0.055) / 1.055) ** 2.4, c / 12.92)


def to_frame_tensor(img):
    """Convert an RGB image to the seven normalized planes.

    gray is the Rec.601 luma; H, S, V follow the hexcone model with H scaled
    to [0, 1]; L*, a*, b* come from sRGB -> linear -> XYZ (D65) -> CIELAB and
    are mapped to [0, 1] via L*/100, (a*+128)/255, (b*+128)/255, then clamped.
    """
    rgb = img.pixels.astype(np.float64) / 255.0
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]

    gray = 0.299 * r + 0.587 * g + 0.114 * b

    mx = rgb.max(axis=2)
    mn = rgb.min(axis=2)
    delta = mx - mn
    safe = np.where(delta > 0, delta, 1.0)
    hue = np.select(
        [mx == r, mx == g],
        [((g - b) / safe) % 6.0, (b - r) / safe + 2.0],
        (r - g) / safe + 4.0,
    )
    hue = np.where(delta > 0, hue / 6.0, 0.0)
    sat = np.where(mx > 0, delta / np.where(mx > 0, mx, 1.0), 0.0)
    val = mx

    lin = _srgb_to_linear(rgb)
    xyz = lin @ _RGB_TO_XYZ.T / _WHITE
    eps = (6.0 / 29.0) ** 3
    fxyz = np.where(xyz > eps, np.cbrt(xyz), xyz / (3 * (6.0 / 29.0) ** 2) + 4.0 / 29.0)
    lstar = 116.0 * fxyz[..., 1] - 16.0
    astar = 500.0 * (fxyz[..., 0] - fxyz[..., 1])
    bstar = 200.0 * (fxyz[..., 1] - fxyz[..., 2])

    planes = np.stack(
        [gray, hue, sat, val, lstar / 100.0, (astar + 128.0) / 255.0, (bstar + 128.0) / 255.0]
    )
    return FrameTensor(np.clip(planes, 0.0, 1.0))


# ---------------------------------------------------------------------------
# LBP and the patch-grid descriptor
# ---------------------------------------------------------------------------

# clockwise from top-left: (dy, dx) pairs; first entry is bit 7
_LBP_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))


def lbp_codes(gray):
    """Vectorized LBP codes for all interior pixels; shape (h-2, w-2)."""
    h, w = gray.shape
    if h < 3 or w < 3:
        raise DataError("plane too small for any 3x3 neighborhood")
    center = gray[1 : h - 1, 1 : w - 1]
    codes = np.zeros(center.shape, dtype=np.uint8)
    for bit, (dy, dx) in zip(range(7, -1, -1), _LBP_OFFSETS):
        nb = gray[1 + dy : h - 1 + dy, 1 + dx : w - 1 + dx]
        codes |= (nb >= center).astype(np.uint8) << bit
    return codes


@lru_cache(maxsize=16)
def _patch_code_index(height, width, patch_h, patch_w, stride_v, stride_h):
    """Gather index and bincount offsets for every patch's interior codes.

    ``gather`` holds, patch after patch, the flat positions in the whole-plane
    code array (h-2, w-2) of each patch's interior pixels; ``offsets`` holds
    ``patch_idx * 256`` for the same entries, so one bincount over
    ``offsets + codes.ravel()[gather]`` yields all patch histograms.
    """
    ys = np.arange(0, height - patch_h + 1, stride_v)
    xs = np.arange(0, width - patch_w + 1, stride_h)
    inner = (np.arange(patch_h - 2)[:, None] * (width - 2) + np.arange(patch_w - 2)).ravel()
    corners = (ys[:, None] * (width - 2) + xs).ravel()
    gather = (corners[:, None] + inner).ravel()
    offsets = np.repeat(np.arange(corners.size) * LBP_BINS, inner.size)
    gather.setflags(write=False)
    offsets.setflags(write=False)
    return gather, offsets


def extract_frame_feature(frame, grid):
    """Concatenated per-patch descriptors, patches enumerated row-major.

    Each patch block is its normalized 256-bin LBP histogram (interior pixels
    only) followed by the mean of the H, S, V, L*, a*, b* channels over all
    patch pixels.

    The LBP codes are computed once for the whole gray plane: an interior
    pixel's code only reads pixels of its own patch, so the whole-plane codes
    cropped to a patch equal the codes of the patch alone. All histograms come
    from one bincount and all color means from one summed-area table.
    """
    height, width = frame.height, frame.width
    rows, cols = grid.grid_shape(height, width)
    ph, pw = grid.patch_h, grid.patch_w
    if ph < 3 or pw < 3:
        raise ConfigurationError(f"patch {ph}x{pw} has no interior pixel (needs >= 3x3)")
    gather, offsets = _patch_code_index(height, width, ph, pw, grid.stride_v, grid.stride_h)
    patches = rows * cols
    out = np.empty((patches, CHANNELS_PER_PATCH))

    codes = lbp_codes(frame.planes[0]).ravel()
    counts = np.bincount(offsets + codes[gather], minlength=patches * LBP_BINS)
    np.divide(counts.reshape(patches, LBP_BINS), (ph - 2) * (pw - 2), out=out[:, :LBP_BINS])

    sat = np.zeros((6, height + 1, width + 1))
    np.cumsum(np.cumsum(frame.planes[1:], axis=1), axis=2, out=sat[:, 1:, 1:])
    top = np.arange(rows)[:, None] * grid.stride_v
    left = np.arange(cols) * grid.stride_h
    sums = (
        sat[:, top + ph, left + pw] - sat[:, top, left + pw]
        - sat[:, top + ph, left] + sat[:, top, left]
    )
    out[:, LBP_BINS:] = sums.reshape(6, patches).T / (ph * pw)
    return out.ravel()


def image_to_feature(img, grid, frame_w=64, frame_h=128):
    """Full frame pipeline: resize -> seven planes -> patch-grid descriptor."""
    resized = resize_bilinear(img, frame_w, frame_h)
    return extract_frame_feature(to_frame_tensor(resized), grid)


def sequence_features(images, grid, frame_w=64, frame_h=128):
    """(T, D) descriptor matrix for an ordered list of images."""
    return np.stack([image_to_feature(img, grid, frame_w, frame_h) for img in images])
