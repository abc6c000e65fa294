"""Test-driven encoder search: sample, test, select, refine.

A test suite is a set of ordering triplets (target, distractor, anchor)
that a candidate must satisfy strictly. Failures render into deterministic
error messages; the best candidates of each round seed the next round's
draws. Here the candidate source is the seeded mutator, started from a
deliberately damaged copy of the "near" encoder, and the search recovers a
perfect encoder.
"""

import numpy as np

from sceneground import EncoderRegistry
from sceneground.builtins import encoder_to_dsl
from sceneground.dsl import eval_encoder
from sceneground.mutation import mutate_definition
from sceneground.optimizer import (
    MutationSource,
    OptimizerConfig,
    TestCase,
    TestSuite,
    optimize_encoder,
    run_test_suite,
)
from sceneground.scene import precompute_geometry, scene_from_dict

rng = np.random.default_rng(0)

# a few random rooms and margin-filtered triplets labeled by the builtin
scenes, cases = {}, []
while len(cases) < 25:
    sid = f"room{len(scenes)}"
    objs = [{"id": i, "label": "obj",
             "bbox": [*rng.uniform(0, 8, 3).tolist(), *rng.uniform(0.3, 1.5, 3).tolist()]}
            for i in range(8)]
    scene = scene_from_dict({"scene_id": sid, "objects": objs})
    data = eval_encoder(encoder_to_dsl("near"), scene, precompute_geometry(scene)).data
    picked = 0
    for _ in range(40):
        t, d, a = (int(v) for v in rng.integers(0, 8, 3))
        if len({t, d, a}) == 3 and data[t, a] > 1.3 * data[d, a] > 0:
            cases.append(TestCase(scene_id=sid, target=t, distractor=d, anchor=a))
            picked += 1
            if picked >= 5 or len(cases) >= 25:
                break
    if picked:
        scenes[sid] = scene
suite = TestSuite(relation="near", cases=tuple(cases), scenes=scenes)
print(f"suite: {len(suite.cases)} triplets over {len(scenes)} rooms")

# damage the builtin, then let the search repair it
damaged = mutate_definition(encoder_to_dsl("near"), seed=105)
start = run_test_suite(damaged, suite)
print(f"damaged start passes {start.pass_rate:.0%}")
if start.failures:
    print("first synthesized error message:")
    print("  " + start.failures[0][1][:120] + "...")

registry = EncoderRegistry()
log = []
best, history = optimize_encoder("near", suite, MutationSource(skeleton=damaged),
                                 registry, OptimizerConfig(seed=0), log=log)
print(f"\nbest-so-far pass rate per iteration: {[f'{h:.2f}' for h in history]}")
print(f"candidates evaluated: {len(log)} (budget 65)")
print(f"winner metadata: {best.metadata}")
print(f"winner is now the active 'near' encoder: "
      f"{registry.active_definition('near') == best}")
