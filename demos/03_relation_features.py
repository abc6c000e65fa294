"""Relation encoders turn box geometry into dense nonnegative features.

Every relation has a builtin encoder written as a DSL expression tree, the
same representation the optimizer searches over, and evaluated like any
candidate. The structural guarantees are visible directly in the matrices:
near/far are symmetric, left/right never both fire for a pair, below is the
transpose of above, and diagonals are always zero.
"""

import numpy as np

from sceneground import precompute_geometry
from sceneground.builtins import encoder_to_dsl
from sceneground.dsl import eval_encoder
from sceneground.scene import scene_from_dict

scene = scene_from_dict({"scene_id": "demo", "objects": [
    {"id": 0, "label": "sofa", "bbox": [5.0, 7.0, 0.5, 2.0, 0.9, 1.0]},
    {"id": 1, "label": "plant", "bbox": [3.4, 7.0, 0.4, 0.5, 0.5, 0.8]},
    {"id": 2, "label": "plant", "bbox": [6.6, 7.0, 0.4, 0.5, 0.5, 0.8]},
    {"id": 3, "label": "shelf", "bbox": [5.0, 7.0, 1.6, 1.2, 0.3, 0.4]},
]})
geom = precompute_geometry(scene)


def show(name):
    data = eval_encoder(encoder_to_dsl(name), scene, geom).data
    print(f"\n{name} (rows: target i, cols: anchor j)")
    for row in np.atleast_2d(data):
        print("  " + "  ".join(f"{v:6.3f}" for v in row))
    return data


near = show("near")
assert np.array_equal(near, near.T)

right = show("right")
left = show("left")
assert not np.any((right > 0) & (right.T > 0)), "antisymmetry is exact"
print("\nantisymmetry holds: wherever right[i,j] > 0, right[j,i] == 0 exactly")

above = show("above")
print(f"\nthe shelf (3) above the sofa (0): above[3,0] = {above[3, 0]:.3f}")
