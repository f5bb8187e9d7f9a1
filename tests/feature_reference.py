"""Per-patch descriptor loop kept as the reference for the whole-plane
descriptor in ``rfanet.features``: the LBP codes are recomputed inside every
patch and the color means are taken patch by patch."""

import numpy as np

from rfanet.features import CHANNELS_PER_PATCH, LBP_BINS, lbp_codes


def extract_frame_feature(frame, grid):
    rows, cols = grid.grid_shape(frame.height, frame.width)
    gray = frame.planes[0]
    color = frame.planes[1:]
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
