"""Command line front end for the retrieval attack pipeline.

Exit codes: 0 on success, 1 for usage or configuration problems, 2 when
a stage fails while running.
"""

import argparse
import json
import sys

from . import experiment
from .config import ExperimentConfig
from .errors import InputError


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text):
    """A run seed, which numpy's seed sequence needs non-negative."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}"
        )
    return value


def build_parser():
    parser = _Parser(
        prog="hashattack",
        description="Targeted adversarial attacks on a toy hashing retrieval "
                    "system: data generation, training, attacks, and scoring.",
    )
    commands = parser.add_subparsers(required=True, metavar="command")

    def add_command(name, help_text):
        command = commands.add_parser(name, help=help_text)
        command.add_argument("--config", metavar="PATH",
                             help="key = value configuration file "
                                  "(defaults apply when omitted)")
        command.add_argument("--seed", metavar="INT", type=_seed, required=True,
                             help="run seed; equal seeds reproduce results")
        command.add_argument("--out", metavar="DIR", required=True,
                             help="shared output directory for all stages")
        command.set_defaults(stage=name.replace("-", "_"))
        return command

    add_command("gen-data", "generate the synthetic image splits")
    add_command("train-hash", "train the hashing model under attack")
    add_command("encode-db", "hash the database split into a code matrix")
    add_command("train-attack", "train the prototype, generator, and "
                                "discriminator stack")
    add_command("attack", "run the trained generator over the query split")
    baseline = add_command("baseline", "run one comparison attack")
    baseline.add_argument("stage", metavar="method", choices=experiment.BASELINES,
                          help="which comparison attack to run: p2p, dhta or noise")
    add_command("eval", "score every generated query set and write the report")
    add_command("transfer-eval", "score the generator against an "
                                 "independently trained model")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is None:
            config = ExperimentConfig()
        else:
            config = ExperimentConfig.from_file(args.config)
    except InputError as err:
        print(f"hashattack: error: {err}", file=sys.stderr)
        return 1
    try:
        result = experiment.execute_stage(args.stage, config, args.seed, args.out)
    except Exception as err:
        print(f"hashattack: {args.stage} failed: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
