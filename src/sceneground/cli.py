"""Command-line surface: parse, ground, optimize, bench.

A subcommand imports what it runs: only ``parse --utterance`` and
``optimize --source llm`` load the LLM client, so ``ground``, ``bench`` and
the offline ``parse`` forms never do.

Each option's default, type and choices are stated once, in
:func:`build_parser`. A ``--config file.json`` holds the same fields as the
flags; :func:`main` checks it by the options' own actions and makes its
values the command's defaults, so precedence is flags > config > defaults.
Exit codes: 0 success, 1 runtime error (a MemoryError too), 2 input
validation error (an :class:`~sceneground.atomic.InputError`).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

from .atomic import InputError, load_json, load_lines, write_text_atomic
from .bench import report_to_dict, run_bench
from .executor import FeatureCache, execute, grounding_result
from .expression import (
    ExpressionError,
    expression_from_dict,
    normalize_relation_name,
    relation_arity,
    serialize_expression,
)
from .optimizer import (
    MutationSource,
    OptimizerConfig,
    default_example_graph,
    load_suite,
    optimize_encoder,
)
from .registry import EncoderRegistry, load_registry, save_registry
from .scene import load_scene


class CliError(InputError):
    """Input validation failure at the command level (exit code 2)."""


def _checked(action: argparse.Action, value):
    """A config's ``value`` for ``action``'s option, as its flag gives it: a
    number that is no bool (for an int option a whole one: ``3.0`` is 3), a
    bool for a switch, one of its choices, else a string. A value of another
    kind, ``null`` too, is a CliError."""
    flag = action.option_strings[0]
    if action.choices is not None:
        if value not in action.choices:
            raise CliError(f"unknown {action.dest} {value!r}; expected "
                           f"{' or '.join(action.choices)}")
    elif action.type in (int, float):
        if action.type is int and isinstance(value, float) and not value.is_integer():
            raise CliError(f"{flag} must be a whole number, got {value!r}")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            with contextlib.suppress(OverflowError):  # an int past float's range
                return action.type(value)
        raise CliError(f"{flag} must be a number, got {value!r}")
    elif action.nargs == 0:  # a store_true switch
        if not isinstance(value, bool):
            raise CliError(f"{flag} must be true or false, got {value!r}")
    elif not isinstance(value, str):
        raise CliError(f"{flag} must be a string, got {value!r}")
    return value


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Make the ``--config`` values of the running command's options, each
    checked by :func:`_checked`, its defaults. One file may serve every
    command: another command's key is passed over, an unknown one a CliError."""
    commands = next(action.choices for action in parser._actions if action.dest == "command")
    options = {name: {action.dest: action for action in command._actions
                      if action.option_strings and action.dest not in ("help", "config")}
               for name, command in commands.items()}
    own = options[args.command]
    for key, value in load_json(args.config, CliError, dict).items():
        if key in own:
            own[key].default = _checked(own[key], value)
        elif not any(key in known for known in options.values()):
            raise CliError(f"{args.config}: unknown option {key!r}")


def _required(args: argparse.Namespace, *keys: str) -> None:
    """CliError naming the first of ``keys`` that no flag or config gave."""
    for key in keys:
        if getattr(args, key) is None:
            raise CliError(f"missing required option --{key.replace('_', '-')}")


def _output_path(args: argparse.Namespace, key: str, directory=False) -> str | None:
    """The path option ``key`` names for the command to write, a directory
    with ``directory``; an existing path of the other kind, or a file in a
    directory that does not exist, is a CliError before any work. A
    directory's missing parents are created when it is written."""
    value = getattr(args, key)
    if value:
        path = Path(value)
        if path.exists() and path.is_dir() != directory:
            raise CliError(f"--{key} {value} is {'a file' if directory else 'a directory'}")
        if not directory and not path.parent.is_dir():
            raise CliError(f"--{key} {value}: no directory {path.parent}")
    return value


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        write_text_atomic(out, text)
    else:
        sys.stdout.write(text)


def cmd_parse(args: argparse.Namespace) -> int:
    out = _output_path(args, "out")
    if args.offline_expr:
        exprs = [load_json(args.offline_expr, ExpressionError, expression_from_dict)]
    elif args.infile:
        exprs = load_lines(args.infile, ExpressionError, expression_from_dict)
        if not exprs:
            raise ExpressionError(f"{args.infile}: no entries")
    elif not args.utterance:
        raise CliError("need --utterance, --in, or --offline-expr")
    else:
        from .llm import EndpointConfig, LlmError, parse_utterance_via_llm

        try:
            exprs = [parse_utterance_via_llm(args.utterance, EndpointConfig.from_env())]
        except (LlmError, ExpressionError) as exc:
            raise LlmError(f"could not parse utterance {args.utterance!r}: {exc}") from None
    _write_or_print("\n".join(serialize_expression(e) for e in exprs) + "\n", out)
    return 0


def cmd_ground(args: argparse.Namespace) -> int:
    _required(args, "scene", "expr")
    out = _output_path(args, "out")
    if args.top_k < 1:
        raise CliError(f"--top-k must be at least 1, got {args.top_k}")
    if not math.isfinite(args.threshold):
        raise CliError(f"--threshold must be a finite number, got {args.threshold}")

    scene = load_scene(args.scene)
    expr = load_json(args.expr, ExpressionError, expression_from_dict)
    registry = load_registry(args.registry) if args.registry else EncoderRegistry()
    score = execute(expr, scene, FeatureCache(scene, registry))
    result = grounding_result(scene, expr, score, top_k=args.top_k, threshold=args.threshold)
    _write_or_print(json.dumps(result, indent=2) + "\n", out)
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    _required(args, "relation", "suite", "scenes", "registry")
    relation = normalize_relation_name(args.relation)
    relation_arity(relation)  # an unknown name is an ExpressionError before the suite is read
    registry_path = _output_path(args, "registry")
    log_path = _output_path(args, "log")
    try:
        cfg = OptimizerConfig(n_iter=args.n_iter, n_sample=args.n_sample, top_k=args.top_k,
                              seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from None

    suite = load_suite(args.suite, args.scenes)
    registry = load_registry(registry_path) if Path(registry_path).exists() else EncoderRegistry()
    client = None
    if args.source == "llm":
        from .llm import EndpointConfig, LlmClient
        from .optimizer import LlmSource

        client = LlmClient(EndpointConfig.from_env())
        source = LlmSource(client=client)
    else:
        source = MutationSource()
    log: list[dict] = []
    try:
        best, history = optimize_encoder(relation, suite, source, registry, cfg,
                                         graph=default_example_graph(), log=log)
    finally:
        if client is not None:
            totals = client.ledger.totals()
            print(f"llm usage: calls={totals['calls']}, "
                  f"prompt_tokens={totals['prompt_tokens']}, "
                  f"completion_tokens={totals['completion_tokens']}, "
                  f"wall_ms={totals['wall_ms']:.1f}", file=sys.stderr)
    for iteration, rate in enumerate(history, 1):
        print(f"iteration {iteration}: best pass rate {rate:.4f}")
    save_registry(registry, registry_path)
    if log_path:
        write_text_atomic(log_path, "\n".join(json.dumps(entry) for entry in log) + "\n")
    print(f"accepted encoder for {relation!r} "
          f"(hash {best.digest()[:12]}, final pass rate {history[-1]:.4f})")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    _required(args, "dataset")
    if args.workers < 1:
        raise CliError(f"--workers must be at least 1, got {args.workers}")
    plots = _output_path(args, "plots", directory=True)
    out = _output_path(args, "out")

    registry = load_registry(args.registry) if args.registry else EncoderRegistry()
    report = run_bench(args.dataset, registry, workers=args.workers, with_baseline=args.baseline,
                       plots_dir=plots)
    report.config["registry"] = args.registry or "builtin"
    payload = json.dumps(report_to_dict(report), indent=2) + "\n"
    _write_or_print(payload, out)
    summary = ", ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in report.aggregates.items())
    print(summary, file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sceneground",
        description="Ground referring expressions in 3D box scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="utterance or expression file -> canonical expression")
    p.add_argument("--utterance", help="utterance to parse via the configured endpoint")
    p.add_argument("--in", dest="infile", help="JSON-lines file of expressions to canonicalize")
    p.add_argument("--offline-expr", dest="offline_expr",
                   help="pre-parsed expression file (no network)")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("ground", help="rank scene objects against an expression")
    p.add_argument("--scene")
    p.add_argument("--expr")
    p.add_argument("--registry", help="encoder registry file (default: builtins)")
    p.add_argument("--top-k", dest="top_k", type=int, default=5)
    p.add_argument("--threshold", type=float, default=0.9)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("optimize", help="search for a better encoder on a test suite")
    p.add_argument("--relation")
    p.add_argument("--suite")
    p.add_argument("--scenes", help="directory of scene files")
    p.add_argument("--source", choices=("mutate", "llm"), default="mutate")
    p.add_argument("--n-iter", dest="n_iter", type=int, default=5)
    p.add_argument("--n-sample", dest="n_sample", type=int, default=5)
    p.add_argument("--top-k", dest="top_k", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--registry", help="registry file to update")
    p.add_argument("--log", help="JSON-lines run log")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("bench", help="run a grounding benchmark directory")
    p.add_argument("--dataset")
    p.add_argument("--registry", help="encoder registry file (default: builtins)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--baseline", action="store_true",
                   help="include the random same-category baseline")
    p.add_argument("--plots", help="directory for CSV plot data")
    p.add_argument("--out", help="report file (default stdout)")
    p.set_defaults(func=cmd_bench)
    for p in sub.choices.values():
        p.add_argument("--config", help="JSON config file (flags take precedence)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand, after its whole ``--config`` file is checked."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(parser, args)
            args = parser.parse_args(argv)
        return args.func(args)
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:  # LlmError: RuntimeError
        # a bare MemoryError has no text; numpy's names the allocation that failed
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1


if __name__ == "__main__":
    sys.exit(main())
