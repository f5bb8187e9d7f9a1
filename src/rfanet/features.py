"""Frame-level features: image decoding, bilinear resize, color conversion,
LBP texture histograms and the overlapping patch-grid descriptor.

The per-frame descriptor is built from a grid of overlapping rectangular
patches; each patch contributes a normalized 256-bin LBP histogram over the
gray plane plus the mean of the six color channels (H, S, V, L*, a*, b*).

Every stage works on a stack of same-size frames: ``resize_bilinear`` takes a
(T, h, w, 3) pixel stack, ``to_frame_tensor`` gives a (T, 7, H, W) float64
planes array, ``lbp_codes`` codes every plane and ``_describe_stack`` keeps
each frame's code plane and pools its color means. A single image is the
stack without its leading axis. ``describe_frames`` is the one description
path: it groups frames by input size, describes each group in stacks of at
most ``_STACK_PIXELS`` output pixels and keeps the result compact, in a
``DescriptorStore``: the uint8 LBP code planes and the float64 color means.
Only on request does the store count the patch histograms, a chunk of rows
per bincount, and expand them to float64 descriptor rows, bit for bit.
``sequence_features`` returns the whole expansion.

Frames already at the target size skip the resize. The color conversion
works plane by plane and reads the sRGB curve from a 256-entry table, and
the color means come from a summed-area table that holds only the rows the
patch grid reads. Each of these gives the same bits as resizing, converting
whole (..., 3) pixels and summing every row.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DataError, FormatError, require_int

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
        require_int(self.width, "width", DataError, low=1)
        require_int(self.height, "height", DataError, low=1)
        self.pixels = np.ascontiguousarray(self.pixels, dtype=np.uint8)
        if self.pixels.shape != (self.height, self.width, 3):
            raise DataError(
                f"pixel buffer shape {self.pixels.shape} does not match "
                f"{self.height}x{self.width}x3"
            )


@dataclass
class PatchGridSpec:
    """Overlapping patch grid; defaults follow the 128x64 frame layout. A
    patch is at least 3x3, so that it has an interior pixel."""

    patch_h: int = 16
    patch_w: int = 8
    stride_v: int = 8
    stride_h: int = 4

    def __post_init__(self):
        for name, low in (("patch_h", 3), ("patch_w", 3), ("stride_v", 1), ("stride_h", 1)):
            require_int(getattr(self, name), f"grid.{name}", low=low)

    def validate_for(self, height, width):
        self.__post_init__()  # a field may have been assigned since construction
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

# The Netpbm header after its 2-byte magic: width, height and maxval, each
# after whitespace or after comments that run from "#" to a newline, then one
# whitespace byte before the payload. A field has at most 640 digits, which
# int() converts under any interpreter digit limit.
_PNM_HEADER = re.compile(rb"(?:\s|#[^\n]*\n)+(\d{1,640})" * 3 + rb"\s")


def decode_image(data):
    """Decode PPM (P6) or PGM (P5) bytes to RawImage, by their magic.

    PGM input is replicated to all three channels.
    """
    channels = {b"P6": 3, b"P5": 1}.get(data[:2])
    if channels is None:
        raise FormatError("unrecognized image magic", 0)
    header = _PNM_HEADER.match(data, 2)
    if header is None:
        raise FormatError("malformed header: need width, height and maxval, each after "
                          "whitespace or a comment line, then one whitespace byte", 2)
    width, height, maxval = map(int, header.groups())
    if width < 1 or height < 1:
        raise FormatError("image dimensions must be >= 1", 2)
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} (must be 255)", header.end(3))
    pos = header.end()
    need = width * height * channels
    if len(data) - pos < need:
        raise FormatError(
            f"truncated pixel payload: need {need} bytes, have {len(data) - pos}",
            len(data),
        )
    pixels = np.frombuffer(data, np.uint8, need, pos).reshape(height, width, channels)
    if channels == 1:
        pixels = np.repeat(pixels, 3, axis=2)
    return RawImage(width, height, pixels)


def read_image(path):
    """Decode a PPM (P6) or PGM (P5) file, by its magic."""
    with open(path, "rb") as fh:
        return decode_image(fh.read())


def encode_ppm(img):
    header = f"P6\n{img.width} {img.height}\n255\n".encode()
    return header + img.pixels.tobytes()


# ---------------------------------------------------------------------------
# resize and color conversion
# ---------------------------------------------------------------------------

def check_frame_size(width, height):
    """The size rule of a frame: its seven float64 planes (``to_frame_tensor``)
    fit in one array, which numpy caps at sys.maxsize bytes."""
    if width * height * 7 * 8 > sys.maxsize:
        raise DataError(f"a {width}x{height} frame is larger than any array")


def resize_bilinear(img, out_w, out_h):
    """Bilinear resize with half-pixel-centered sampling, per channel.

    ``img`` is a RawImage, or a uint8 stack (T, h, w, 3) of same-size frames
    that becomes (T, out_h, out_w, 3); the result is of the same kind. At the
    target size every sample falls on a source pixel with zero weight on its
    neighbours, so ``img`` itself is returned: the result aliases the input.
    """
    require_int(out_w, "out_w", DataError, low=1)
    require_int(out_h, "out_h", DataError, low=1)
    check_frame_size(out_w, out_h)
    pixels = img.pixels if isinstance(img, RawImage) else img
    height, width = pixels.shape[-3:-1]
    if (height, width) == (out_h, out_w):
        return img
    src = pixels.astype(np.float64)
    ys = np.clip((np.arange(out_h) + 0.5) * height / out_h - 0.5, 0, height - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * width / out_w - 0.5, 0, width - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, height - 1)
    x1 = np.minimum(x0 + 1, width - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    rows0, rows1 = src[..., y0, :, :], src[..., y1, :, :]
    top = rows0[..., x0, :] * (1 - wx) + rows0[..., x1, :] * wx
    bot = rows1[..., x0, :] * (1 - wx) + rows1[..., x1, :] * wx
    out = np.clip(np.rint(top * (1 - wy) + bot * wy), 0, 255).astype(np.uint8)
    return RawImage(out_w, out_h, out) if isinstance(img, RawImage) else out


def _srgb_to_linear(c):
    return np.where(c > 0.04045, ((c + 0.055) / 1.055) ** 2.4, c / 12.92)


# linear-light value of each 8-bit sRGB level
_SRGB_LINEAR = _srgb_to_linear(np.arange(256) / 255.0)
_SRGB_LINEAR.setflags(write=False)


def to_frame_tensor(img):
    """Convert an RGB image, or a uint8 stack (T, H, W, 3), to a float64
    array of the seven normalized planes (gray, H, S, V, L*, a*, b*) in
    [0, 1], shape (7, H, W) or (T, 7, H, W).

    gray is the Rec.601 luma; H, S, V follow the hexcone model with H scaled
    to [0, 1]; L*, a*, b* come from sRGB -> linear -> XYZ (D65) -> CIELAB and
    are mapped to [0, 1] via L*/100, (a*+128)/255, (b*+128)/255, then clamped.

    Gray and H, S, V are computed plane by plane, and the sRGB curve is read
    from a 256-entry table of ``_srgb_to_linear``; the XYZ product stays on
    the (..., 3) pixels so that it sums in the order of a 3x3 matmul.
    """
    pixels = img.pixels if isinstance(img, RawImage) else img
    out = np.empty(pixels.shape[:-3] + (7,) + pixels.shape[-3:-1])
    gray, hue, sat, val, lstar, astar, bstar = (out[..., k, :, :] for k in range(7))
    r, g, b = (pixels[..., k] / 255.0 for k in range(3))

    gray[...] = 0.299 * r + 0.587 * g + 0.114 * b

    np.maximum(np.maximum(r, g), b, out=val)
    delta = val - np.minimum(np.minimum(r, g), b)
    safe = np.where(delta > 0, delta, 1.0)
    # hue in the red sector: (g - b) / safe lies in [-1, 1], where % 6.0 only
    # adds 6 to a negative value (g - b is +0, never -0, when g == b)
    red = (g - b) / safe
    red = np.where(red < 0, red + 6.0, red)
    h = np.select([val == r, val == g], [red, (b - r) / safe + 2.0], (r - g) / safe + 4.0)
    # a gray pixel (delta 0) takes the red branch with g - b = +0, so its hue
    # is already +0, and a black one (val 0) has delta 0
    hue[...] = h / 6.0
    sat[...] = delta / np.where(val > 0, val, 1.0)

    xyz = np.take(_SRGB_LINEAR, pixels) @ _RGB_TO_XYZ.T / _WHITE
    eps = (6.0 / 29.0) ** 3
    fxyz = np.where(xyz > eps, np.cbrt(xyz), xyz / (3 * (6.0 / 29.0) ** 2) + 4.0 / 29.0)
    fx, fy, fz = fxyz[..., 0], fxyz[..., 1], fxyz[..., 2]
    lstar[...] = (116.0 * fy - 16.0) / 100.0
    astar[...] = (500.0 * (fx - fy) + 128.0) / 255.0
    bstar[...] = (200.0 * (fy - fz) + 128.0) / 255.0
    return np.clip(out, 0.0, 1.0, out=out)


# ---------------------------------------------------------------------------
# LBP and the patch-grid descriptor
# ---------------------------------------------------------------------------

# clockwise from top-left: (dy, dx) pairs; first entry is bit 7
_LBP_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))


def lbp_codes(gray):
    """Vectorized LBP codes for all interior pixels of a plane (h, w), or of
    each plane of a stack (T, h, w); shape (..., h-2, w-2)."""
    h, w = gray.shape[-2:]
    if h < 3 or w < 3:
        raise DataError("plane too small for any 3x3 neighborhood")
    center = gray[..., 1 : h - 1, 1 : w - 1]
    codes = np.zeros(center.shape, dtype=np.uint8)
    for bit, (dy, dx) in zip(range(7, -1, -1), _LBP_OFFSETS):
        nb = gray[..., 1 + dy : h - 1 + dy, 1 + dx : w - 1 + dx]
        codes |= (nb >= center).astype(np.uint8) << bit
    return codes


@lru_cache(maxsize=16)
def _patch_code_index(height, width, patch_h, patch_w, stride_v, stride_h):
    """Gather index and bincount offsets for every patch's interior codes.

    ``gather`` holds, patch after patch, the flat positions in the whole-plane
    code array (h-2, w-2) of each patch's interior pixels; ``offsets`` holds
    the position ``patch_idx * 262`` of the patch's block in a descriptor row
    for the same entries, so one bincount over ``offsets + codes[gather]``
    counts every patch histogram in its place in the row. Row t of a chunk
    adds ``t * D`` on top.
    """
    ys = np.arange(0, height - patch_h + 1, stride_v)
    xs = np.arange(0, width - patch_w + 1, stride_h)
    inner = (np.arange(patch_h - 2)[:, None] * (width - 2) + np.arange(patch_w - 2)).ravel()
    corners = (ys[:, None] * (width - 2) + xs).ravel()
    gather = (corners[:, None] + inner).ravel()
    offsets = np.repeat(np.arange(corners.size) * CHANNELS_PER_PATCH, inner.size)
    gather.setflags(write=False)
    offsets.setflags(write=False)
    return gather, offsets


def _describe_stack(planes, grid):
    """Compact parts of the descriptors of a planes stack (T, 7, H, W): the
    (T, (H-2)(W-2)) uint8 LBP codes of each whole gray plane and the
    (T, P, 6) float64 means of every patch's H, S, V, L*, a*, b* pixels.

    An interior pixel's code only reads pixels of its own patch, so the
    whole-plane codes cropped to a patch equal the codes of the patch alone,
    and the plane holds every patch histogram (``DescriptorStore.expand``
    counts them). All color means come from one summed-area table per plane.
    """
    height, width = planes.shape[-2:]
    rows, cols = grid.grid_shape(height, width)
    ph, pw = grid.patch_h, grid.patch_w
    stack = planes.reshape(-1, 7, height, width)
    T, patches = len(stack), rows * cols
    codes = lbp_codes(stack[:, 0]).reshape(T, -1)

    # summed-area table over the rows the grid reads: row k holds the sums
    # over the frame's first ys[k] rows (ys[0] = top[0] = 0), so the x cumsum
    # runs on len(ys) rows, not height + 1
    top = np.arange(rows) * grid.stride_v
    ys = np.union1d(top, top + ph)
    sat = np.zeros((T, 6, ys.size, width + 1))
    col = np.cumsum(stack[:, 1:], axis=2)
    np.cumsum(col[:, :, ys[1:] - 1], axis=3, out=sat[:, :, 1:, 1:])
    y0 = np.searchsorted(ys, top)[:, None]
    y1 = np.searchsorted(ys, top + ph)[:, None]
    left = np.arange(cols) * grid.stride_h
    sums = (
        sat[:, :, y1, left + pw] - sat[:, :, y0, left + pw]
        - sat[:, :, y1, left] + sat[:, :, y0, left]
    )
    color = sums.reshape(T, 6, patches).transpose(0, 2, 1) / (ph * pw)
    return codes, color


def _count_codes(codes, gather, offsets, table, out):
    """Fill descriptor rows ``out`` (n, D) with ``table[count]`` for every
    patch bin of the code planes ``codes`` (n, (h-2)(w-2)); a color slot
    counts 0. Its temporaries die on return, before the next chunk's."""
    index = codes.take(gather, axis=1).astype(np.intp)
    index += offsets
    index += np.arange(len(codes))[:, None] * out.shape[1]
    counts = np.bincount(index.ravel(), minlength=out.size)
    # a count never exceeds the table; "clip" writes to out unbuffered
    table.take(counts.reshape(out.shape), out=out, mode="clip")


# bytes of temporaries per expansion chunk: the gather index and the bincount
# output, both int64, of as many rows as fit, at least one. 1 MiB is 9 rows
# at the desk geometry and 1 at the full one. Larger chunks are slower, as
# their fresh temporaries page-fault on every call: on a 2-core Xeon, 64
# full-scale rows expanded in 9.7 ms at 1 MiB, 12.0 ms at 4 MiB and 18.5 ms
# in one chunk (best of 15 calls)
_EXPAND_BYTES = 1 << 20


@dataclass
class DescriptorStore:
    """Exact compact descriptors of N frames.

    ``codes`` (N, (h-2)(w-2)) holds each frame's uint8 LBP code plane and
    ``color`` (N, P, 6) its float64 color means; ``geometry`` is the frame
    and grid layout (height, width, patch_h, patch_w, stride_v, stride_h).
    ``rows`` maps a sequence's key to its row indices, in time order.

    ``expand`` counts each patch's interior codes and divides the counts by
    the interior pixel count, the division that defines the histogram, so an
    expanded row has every bit of the row a float64 (N, D) matrix would
    hold, at about a twenty-fifth of its bytes: 18.6 KB in place of 471.6
    KB per full-scale frame.
    """

    codes: np.ndarray
    color: np.ndarray
    geometry: tuple
    rows: dict = field(default_factory=dict)

    def __post_init__(self):
        bad = ~np.isfinite(self.color).all(axis=(1, 2))
        if bad.any():
            raise DataError(f"frame {int(np.argmax(bad))} has a non-finite descriptor")

    def __len__(self):
        return len(self.codes)

    @property
    def dim(self):
        return self.color.shape[1] * CHANNELS_PER_PATCH

    def expand(self, index=slice(None)):
        """Float64 descriptor rows of the frames ``index`` selects, as a
        (N, D) matrix would give them: (n, D) rows, or the (D,) row of an
        integer. The histograms are counted ``_EXPAND_BYTES`` at a time."""
        rows = np.arange(len(self))[index]
        if rows.ndim == 0:
            return self.expand(rows[None])[0]
        gather, offsets = _patch_code_index(*self.geometry)
        dim = self.dim
        interior = gather.size // self.color.shape[1]
        # k / interior for every count k: the division that defines the
        # histogram, read from a table rather than done once per bin
        table = np.arange(interior + 1) / interior
        out = np.empty((len(rows), dim))
        step = max(1, _EXPAND_BYTES // (8 * (gather.size + dim)))
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            chunk = out[start : start + step]
            _count_codes(self.codes[block], gather, offsets, table, chunk)
            chunk.reshape(len(block), -1, CHANNELS_PER_PATCH)[..., LBP_BINS:] = self.color[block]
        return out


class DescriptorRows:
    """Rows of a DescriptorStore read as a (T, D) float64 matrix: indexing
    expands only the rows it selects."""

    ndim = 2

    def __init__(self, store, rows):
        self.store, self.rows = store, np.asarray(rows)

    @property
    def shape(self):
        return (len(self.rows), self.store.dim)

    def __getitem__(self, index):
        return self.store.expand(self.rows[index])


# output pixels per stack, at least one frame: 8,192 pixels are about 459 KB
# as seven float64 planes, one full-scale 128x64 frame or sixteen 32x16 ones.
# Larger stacks push the color conversion's temporaries out of the L2 cache:
# on a 2-core Xeon with 2 MB of L2 per core, 64 full-scale frames described
# at 436-462 frames/s with this cap, 335-370 with a cap of 2^17 pixels and
# 264-272 with none (medians of 15 calls).
_STACK_PIXELS = 1 << 13


def describe_frames(images, grid, frame_w=64, frame_h=128):
    """The DescriptorStore of an ordered list of images, with no ``rows``.

    The frames are grouped by input size, and each group runs through the
    pipeline as stacks of at most ``_STACK_PIXELS`` output pixels; row t is
    frame t's descriptor whatever the grouping.
    """
    require_int(frame_w, "frame_w", DataError, low=1)
    require_int(frame_h, "frame_h", DataError, low=1)
    check_frame_size(frame_w, frame_h)
    patches = grid.num_patches(frame_h, frame_w)
    codes = np.empty((len(images), (frame_h - 2) * (frame_w - 2)), np.uint8)
    color = np.empty((len(images), patches, 6))
    per_stack = max(1, _STACK_PIXELS // (frame_w * frame_h))
    groups = {}
    for t, img in enumerate(images):
        groups.setdefault(img.pixels.shape, []).append(t)
    for rows in groups.values():
        for start in range(0, len(rows), per_stack):
            block = rows[start : start + per_stack]
            pixels = np.stack([images[t].pixels for t in block])
            planes = to_frame_tensor(resize_bilinear(pixels, frame_w, frame_h))
            codes[block], color[block] = _describe_stack(planes, grid)
    geometry = (frame_h, frame_w, grid.patch_h, grid.patch_w, grid.stride_v, grid.stride_h)
    return DescriptorStore(codes, color, geometry)


def sequence_features(images, grid, frame_w=64, frame_h=128):
    """(T, D) float64 descriptor matrix for an ordered list of images: the
    expanded ``describe_frames`` store. Row t holds frame t's patch blocks,
    row-major, each the patch's normalized 256-bin LBP histogram (interior
    pixels only) and its H, S, V, L*, a*, b* means."""
    return describe_frames(images, grid, frame_w, frame_h).expand()
