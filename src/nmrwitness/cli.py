"""Command-line entry point.

Subcommands cover the three reference experiments (fig2, fig3, fig4), a custom
analysis mode, and a state-document validator.  Exit codes: 0 success,
2 validation failure, 3 optimizer failure, 4 cross-check failure.  Exit 2
covers every invalid input, each reported as one line on stderr: a state,
parameter or config value that fails its check, and a state or --config file
that is missing, unreadable, not JSON, not a JSON object or lacks a required
key (``errors.BadDocument``).
"""

import argparse
import dataclasses
import json
import os
import sys

from .errors import (
    BadConfig,
    BadDistribution,
    BadDocument,
    BadIndex,
    EpsilonMismatch,
    NotAState,
    OptimizerFailure,
    SequenceMismatch,
    UnknownKind,
)
from .harness import (
    DEFAULT_NOISE_LEVEL,
    NORMALIZATIONS,
    CrossCheckFailure,
    ExperimentConfig,
    run_experiment,
    validate_state_doc,
)
from .nmr import SpinSystemParams

OUT_DIR_ENV = "NMRWITNESS_OUT"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_OPTIMIZER = 3
EXIT_CROSS_CHECK = 4

_VALIDATION_ERRORS = (NotAState, BadDistribution, BadDocument, BadConfig, EpsilonMismatch,
                      BadIndex, UnknownKind, SequenceMismatch, ValueError)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilon", type=float, default=None,
                        help="override the high-temperature expansion parameter")
    parser.add_argument("--normalization", choices=NORMALIZATIONS, default="thermal")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--config", default=None,
                        help="JSON file with config field overrides")
    parser.add_argument("--pulse-level", action="store_true",
                        help="simulate preparation and circuit at pulse level")
    parser.add_argument("--noise", nargs="?", type=float, const=DEFAULT_NOISE_LEVEL,
                        default=None, metavar="LEVEL",
                        help="enable preparation-noise injection (default level "
                             f"{DEFAULT_NOISE_LEVEL})")
    parser.add_argument("--timing", action="store_true",
                        help="also write wall-clock timing (non-deterministic)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmrwitness",
        description="Two-qubit correlation-witness and discord simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("fig2", "fig3", "fig4"):
        p = sub.add_parser(name, help=f"reproduce the {name} data tables")
        _add_common(p)
    p_custom = sub.add_parser("custom", help="analyze a user-supplied state")
    p_custom.add_argument("state", help="JSON file with a state document")
    _add_common(p_custom)
    p_val = sub.add_parser("validate", help="validate a state document")
    p_val.add_argument("state", help="JSON file with a state document")
    return parser


def _read_json(path: str, what: str) -> dict:
    """The JSON object in the file ``path``; BadDocument if the file cannot
    be read or does not hold a JSON object."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise BadDocument(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise BadDocument(f"{what} {path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise BadDocument(f"{what} {path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def _known_keys(overrides: dict, cls, where: str) -> dict:
    """Return ``overrides`` after checking that it is a JSON object whose
    every key names a field of ``cls``, so a misspelt key fails instead of
    falling back to the default."""
    if not isinstance(overrides, dict):
        raise BadDocument(f"--config {where} value must be a JSON object, "
                          f"got {type(overrides).__name__}")
    unknown = sorted(set(overrides) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise BadConfig(f"unknown {where} keys in --config: {', '.join(unknown)}")
    return overrides


def _config_from_args(args) -> ExperimentConfig:
    overrides = {}
    if args.config:
        overrides = _known_keys(_read_json(args.config, "config file"), ExperimentConfig,
                                "top-level")

    param_overrides = _known_keys(overrides.pop("params", {}), SpinSystemParams, "params")
    if args.epsilon is not None:
        param_overrides["epsilon"] = args.epsilon
    params = dataclasses.replace(SpinSystemParams(), **param_overrides)

    out_dir = args.out or os.environ.get(OUT_DIR_ENV)
    config = ExperimentConfig(
        experiment=args.command,
        seed=args.seed,
        normalization=args.normalization,
        noise_level=args.noise,
        pulse_level=args.pulse_level,
        params=params,
        out_dir=out_dir,
        write_timing=args.timing,
    )
    return dataclasses.replace(config, **overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "validate":
        try:
            info = validate_state_doc(_read_json(args.state, "state file"))
        except _VALIDATION_ERRORS as exc:
            print(f"invalid state: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        print(json.dumps(info, indent=2, sort_keys=True))
        return EXIT_OK

    try:
        config = _config_from_args(args)
        state_doc = None
        if args.command == "custom":
            state_doc = _read_json(args.state, "state file")
        report = run_experiment(config, state_doc)
    except OptimizerFailure as exc:
        print(f"optimizer failure: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER
    except CrossCheckFailure as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return EXIT_CROSS_CHECK
    except _VALIDATION_ERRORS as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
