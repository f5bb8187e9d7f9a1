"""References for ``rfanet.features``.

``extract_frame_feature`` is the per-patch descriptor loop over one frame's
(7, H, W) planes: the LBP codes are recomputed inside every patch and the
color means are taken patch by patch.
``resize_bilinear`` and ``to_frame_tensor`` are the whole-pixel forms of the
resize and the color conversion, frozen: they resize even at the target size,
take H, S, V from (..., 3) pixel arrays and apply the sRGB curve to every
pixel. They take and return arrays, (..., h, w, 3) uint8 pixels and
(..., 7, H, W) planes.
"""

import numpy as np

from rfanet.features import CHANNELS_PER_PATCH, LBP_BINS, lbp_codes


def extract_frame_feature(planes, grid):
    rows, cols = grid.grid_shape(*planes.shape[-2:])
    gray = planes[0]
    color = planes[1:]
    out = np.empty(rows * cols * CHANNELS_PER_PATCH)
    pos = 0
    for r in range(rows):
        y = r * grid.stride_v
        for c in range(cols):
            x = c * grid.stride_h
            codes = lbp_codes(gray[y : y + grid.patch_h, x : x + grid.patch_w]).ravel()
            hist = np.bincount(codes, minlength=LBP_BINS).astype(np.float64)
            hist /= codes.size
            out[pos : pos + LBP_BINS] = hist
            out[pos + LBP_BINS : pos + CHANNELS_PER_PATCH] = color[
                :, y : y + grid.patch_h, x : x + grid.patch_w
            ].mean(axis=(1, 2))
            pos += CHANNELS_PER_PATCH
    return out


_RGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_WHITE = np.array([0.95047, 1.0, 1.08883])


def resize_bilinear(pixels, out_w, out_h):
    height, width = pixels.shape[-3:-1]
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
    return np.clip(np.rint(top * (1 - wy) + bot * wy), 0, 255).astype(np.uint8)


def _srgb_to_linear(c):
    return np.where(c > 0.04045, ((c + 0.055) / 1.055) ** 2.4, c / 12.92)


def to_frame_tensor(pixels):
    rgb = pixels.astype(np.float64) / 255.0
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]

    gray = 0.299 * r + 0.587 * g + 0.114 * b

    mx = rgb.max(axis=-1)
    mn = rgb.min(axis=-1)
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
        [gray, hue, sat, val, lstar / 100.0, (astar + 128.0) / 255.0, (bstar + 128.0) / 255.0],
        axis=-3,
    )
    return np.clip(planes, 0.0, 1.0)
