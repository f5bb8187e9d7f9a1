"""Walk through the frame descriptor on a single synthetic image.

Each frame is resized, converted to seven channels (gray, HSV, Lab), and cut
into overlapping patches. Every patch contributes a 256-bin texture histogram
computed on the gray plane plus the mean of the six color channels, so a
patch is 262 numbers and the frame descriptor is num_patches * 262.
"""

import numpy as np

import rfanet as rf

rng = np.random.default_rng(0)

img = rf.RawImage(16, 32, rng.integers(0, 256, size=(32, 16, 3), dtype=np.uint8))
planes = rf.to_frame_tensor(img)
print(f"image {img.width}x{img.height} -> {planes.shape[0]} planes of "
      f"{planes.shape[1]}x{planes.shape[2]}")

grid = rf.PatchGridSpec(patch_h=8, patch_w=4, stride_v=4, stride_h=2)
rows, cols = grid.grid_shape(32, 16)
print(f"patch grid: {rows}x{cols} = {grid.num_patches(32, 16)} patches, "
      f"{grid.feature_dim(32, 16)} feature values")

feat = rf.sequence_features([img], grid, frame_w=16, frame_h=32)[0]
blocks = feat.reshape(-1, 262)
print(f"histogram mass per patch (should all be 1): "
      f"{blocks[:, :256].sum(axis=1).min():.6f} .. "
      f"{blocks[:, :256].sum(axis=1).max():.6f}")
print(f"color means of first patch: {np.round(blocks[0, 256:], 4)}")

# the full-scale geometry used for real 128x64 pedestrian crops
full = rf.PatchGridSpec()
print(f"\nfull scale: {full.num_patches(128, 64)} patches, "
      f"descriptor dimension {full.feature_dim(128, 64)}")
