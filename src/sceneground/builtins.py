"""Reference encoders for the 16 spatial relations, as DSL expression trees.

Each builtin is an :class:`EncoderDefinition` whose body is evaluated like any
other candidate (``eval_encoder``). Every caller shares the one module-level
definition per relation, checked once at import. The check pass interns
every subtree, and a builtin's body is its root summary's node, so a
repeated subtree (a proximity term, the unit vector toward an anchor, both
operands of a square), within a builtin or across them, is one node object
and one summary, which an equal subtree loaded from a registry file or an
LLM reply shares.

Guaranteed structure:
  * near / far are exactly symmetric.
  * left / right gate on an antisymmetrized lateral projection, so a positive
    entry forces the transposed entry to be exactly zero.
  * below is exactly the transpose of above.

Directional relations (left/right/front/behind) assume a viewer standing at
the scene's xy-centroid and facing the anchor object.
"""

from __future__ import annotations

from .dsl import EncoderDefinition, agg, compile_definition, const, get, op
from .expression import ALL_RELATIONS

__all__ = ["encoder_to_dsl", "builtin_definitions"]

_HIGH_EPS = 1e-6


def _sq(node: dict) -> dict:
    return op("mul", node, node)


def _diff(field: str, a: str, b: str, axis: str) -> dict:
    return op("sub", get(field, a, axis), get(field, b, axis))


def _dist_tree(a: str, b: str) -> dict:
    return op("sqrt", op("add",
                         op("add", _sq(_diff("center", a, b, "x")),
                            _sq(_diff("center", a, b, "y"))),
                         _sq(_diff("center", a, b, "z"))))


def _proximity_tree(a: str = "i", b: str = "j") -> dict:
    return op("exp", op("neg", op("div", _dist_tree(a, b), agg("mean_diagonal"))))


def _unit_toward_tree(obj: str) -> tuple[dict, dict]:
    """Unit xy-direction from the scene centroid toward ``obj``."""
    nx = op("sub", get("center", obj, "x"), agg("centroid", "x"))
    ny = op("sub", get("center", obj, "y"), agg("centroid", "y"))
    norm = op("sqrt", op("add", _sq(nx), _sq(ny)))
    return op("div", nx, norm), op("div", ny, norm)


def _lateral_sign_tree() -> dict:
    """Antisymmetric lateral projection: positive where i sits to the
    viewer's right of anchor j; swapping i and j negates it exactly."""
    vxj, vyj = _unit_toward_tree("j")
    uxj, uyj = op("neg", vyj), vxj
    toward_j = op("dot2", _diff("center", "i", "j", "x"), _diff("center", "i", "j", "y"), uxj, uyj)
    vxi, vyi = _unit_toward_tree("i")
    uxi, uyi = op("neg", vyi), vxi
    toward_i = op("dot2", _diff("center", "j", "i", "x"), _diff("center", "j", "i", "y"), uxi, uyi)
    return op("mul", op("sub", toward_j, toward_i), const(0.5))


def _facing_projection_tree() -> dict:
    """Projection of (center_i - center_j) onto the viewer->anchor direction."""
    vxj, vyj = _unit_toward_tree("j")
    return op("dot2", _diff("center", "i", "j", "x"), _diff("center", "i", "j", "y"), vxj, vyj)


def _above_tree(a: str = "i", b: str = "j") -> dict:
    """``a`` rests on top of ``b``: bottom of a near top of b, xy-aligned."""
    vertical = op("exp", op("neg", op("div",
                                      op("abs", op("sub", get("bottom", a), get("top", b))),
                                      op("mul", get("size", a, "z"), const(0.5)))))

    def aligned(axis: str) -> dict:
        return op("div",
                  op("abs", _diff("center", a, b, axis)),
                  op("mul", op("add", get("size", a, axis), get("size", b, axis)), const(0.5)))

    horizontal = op("exp", op("neg", op("add", aligned("x"), aligned("y"))))
    return op("mul", vertical, horizontal)


def _between_tree() -> dict:
    def seg(axis: str) -> dict:
        return _diff("center", "k", "j", axis)

    def rel(axis: str) -> dict:
        return _diff("center", "i", "j", axis)

    seg_len2 = op("add", op("add", _sq(seg("x")), _sq(seg("y"))), _sq(seg("z")))
    t_dot = op("add", op("add",
                         op("mul", rel("x"), seg("x")),
                         op("mul", rel("y"), seg("y"))),
               op("mul", rel("z"), seg("z")))
    p = op("clamp01", op("div", t_dot, seg_len2))

    def off(axis: str) -> dict:
        return op("sub", rel(axis), op("mul", p, seg(axis)))

    r = op("sqrt", op("add", op("add", _sq(off("x")), _sq(off("y"))), _sq(off("z"))))
    closeness = op("exp", op("neg", op("div", r, agg("mean_diagonal"))))
    return op("mul", op("mul", closeness, const(4.0)),
              op("mul", p, op("sub", const(1.0), p)))


def _gap_tree(axis: str) -> dict:
    low = op("sub",
             op("sub", get("center", "i", axis), op("mul", get("size", "i", axis), const(0.5))),
             agg("hull_min", axis))
    high = op("sub", agg("hull_max", axis),
              op("add", get("center", "i", axis), op("mul", get("size", "i", axis), const(0.5))))
    return op("min", low, high)


def _wall_tree(gap: dict) -> dict:
    return op("exp", op("neg", op("div", gap, op("mul", agg("mean_diagonal"), const(0.25)))))


def _high_tree() -> dict:
    return op("div",
              op("sub", get("center", "i", "z"), agg("center_min", "z")),
              op("add", op("sub", agg("center_max", "z"), agg("center_min", "z")), const(_HIGH_EPS)))


def _build_trees() -> dict[str, dict]:
    proximity = _proximity_tree()
    lateral = _lateral_sign_tree()
    facing = _facing_projection_tree()
    high = _high_tree()
    gap_x, gap_y = _gap_tree("x"), _gap_tree("y")
    return {
        "large": op("div", get("volume", "i"), agg("volume_max")),
        "small": op("div", agg("volume_min"), get("volume", "i")),
        "high": high,
        "low": op("sub", const(1.0), high),
        "on_the_floor": _wall_tree(op("sub", get("bottom", "i"), agg("floor_z"))),
        "against_the_wall": _wall_tree(op("min", gap_x, gap_y)),
        "at_the_corner": _wall_tree(op("add", gap_x, gap_y)),
        "near": proximity,
        "far": op("sub", const(1.0), proximity),
        "above": _above_tree("i", "j"),
        "below": _above_tree("j", "i"),
        "left": op("mul", op("relu", op("neg", lateral)), proximity),
        "right": op("mul", op("relu", lateral), proximity),
        "front": op("mul", op("relu", op("neg", facing)), proximity),
        "behind": op("mul", op("relu", facing), proximity),
        "between": _between_tree(),
    }


def _compiled_definitions() -> dict[str, EncoderDefinition]:
    """The builtins, each tree checked once, at import, with its root
    summary's interned node as its body."""
    definitions = {}
    for name, tree in _build_trees().items():
        root = compile_definition(EncoderDefinition(relation=name, body=tree))
        definitions[name] = EncoderDefinition(relation=name, body=root.node, metadata="builtin")
        compile_definition(definitions[name], root)
    return definitions


_DEFINITIONS = _compiled_definitions()


def encoder_to_dsl(relation: str) -> EncoderDefinition:
    """The builtin definition of a relation; one shared, immutable object."""
    if relation not in _DEFINITIONS:
        raise KeyError(f"no builtin encoder for relation {relation!r}")
    return _DEFINITIONS[relation]


def builtin_definitions() -> dict[str, EncoderDefinition]:
    """A new dict of the shared builtin definitions, in ``ALL_RELATIONS`` order."""
    return {name: _DEFINITIONS[name] for name in ALL_RELATIONS}
