"""Scenes are ordered sets of labeled boxes; geometry is precomputed once.

A scene file holds, per object, an id, a category label, and a box as
[cx, cy, cz, w, d, h] with z up. `precompute_geometry` derives everything
the relation encoders consume: box centers and sizes, volumes, the mean box
diagonal (the natural distance scale of the scene), the floor height, and
the xy hull spanned by the box extents.
"""

import json
import tempfile
from pathlib import Path

from sceneground import load_scene, precompute_geometry

SCENE = {
    "scene_id": "demo_room",
    "objects": [
        {"id": 0, "label": "table", "bbox": [2.0, 2.0, 0.40, 1.6, 1.0, 0.8]},
        {"id": 1, "label": "chair", "bbox": [2.8, 2.7, 0.45, 0.5, 0.5, 0.9]},
        {"id": 2, "label": "chair", "bbox": [7.5, 6.0, 0.45, 0.5, 0.5, 0.9]},
        {"id": 3, "label": "lamp", "bbox": [2.0, 2.0, 2.40, 0.3, 0.3, 0.4]},
    ],
}

with tempfile.TemporaryDirectory() as td:
    path = Path(td) / "demo_room.json"
    path.write_text(json.dumps(SCENE))
    scene = load_scene(path)

print(f"loaded scene {scene.scene_id!r} with {len(scene)} objects")
print(f"labels: {scene.labels}")
print(f"object id 2 sits at position {scene.index_of[2]}")

geom = precompute_geometry(scene)
print(f"\nmean box diagonal : {geom.mean_diagonal:.4f}  (the scene's distance scale)")
print(f"floor height      : {geom.floor_z:.4f}  (lowest bottom face)")
print(f"xy hull           : {geom.hull_min.round(3)} .. {geom.hull_max.round(3)}")
print(f"xy centroid       : {geom.centroid_xy.round(3)}  (the default viewpoint)")
