"""Command-line entry point: generate | train | attack | ablate | report."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

from .experiment import (
    ConfigError,
    ExperimentConfig,
    cmd_ablate,
    cmd_attack,
    cmd_generate,
    cmd_report,
    cmd_train,
)
from .graphs import GraphValidationError
from .models import RelaxToggles


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", help="override output directory")
    p.add_argument("--seed", type=int, help="restrict to a single seed")
    p.add_argument("--model", help="restrict to one architecture")
    p.add_argument("--budget", type=float, help="restrict to one budget fraction")
    p.add_argument("--toggles", help="comma list of relaxations to enable (others off)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gtattack",
                                     description="graph-transformer adaptive attacks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("generate", "train", "attack", "ablate", "report"):
        _add_common(sub.add_parser(name))
    return parser


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """The config with the command-line overrides applied and validated again
    (the config itself when there are none)."""
    changes: dict = {}
    if args.out:
        changes["out"] = args.out
    if args.seed is not None:
        changes["seeds"] = [args.seed]
    if args.model:
        changes["models"] = [m for m in cfg.models if m.arch == args.model]
        if not changes["models"]:
            raise ConfigError(f"no configured model named {args.model!r}")
    if args.budget is not None:
        changes["budgets"] = [args.budget]
        changes["ablate_budget"] = args.budget
    if args.toggles is not None:
        if args.command == "ablate":
            raise ConfigError("ablate sweeps the toggle sets of ablation_grid "
                              "and takes no --toggles")
        if args.command == "report":
            raise ConfigError("report takes no --toggles: results.json holds the "
                              "toggle set of the attack run that wrote it")
        # unknown names are rejected when the new config is validated
        toggles = dict.fromkeys(RelaxToggles().to_dict(), False)
        toggles.update(dict.fromkeys((t for t in args.toggles.split(",") if t), True))
        changes["attack"] = {**cfg.attack, "toggles": toggles}
    return dataclasses.replace(cfg, **changes) if changes else cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # progress goes to the stderr of this call; records still propagate to
    # any handlers the caller installed
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    log = logging.getLogger("gtattack")
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        cfg = _apply_overrides(ExperimentConfig.load(args.config), args)
        if args.command == "generate":
            ds = cmd_generate(cfg)
            print(f"wrote {len(ds.graphs)} graphs to {cfg.out}/dataset")
        elif args.command == "train":
            models = cmd_train(cfg)
            for arch in models:
                print(f"trained {arch} -> {cfg.out}/checkpoints/{arch}.json")
        elif args.command == "attack":
            table = cmd_attack(cfg)
            print(f"wrote {len(table.rows)} result rows to {cfg.out}/results.json")
        elif args.command == "ablate":
            table = cmd_ablate(cfg)
            print(f"wrote {len(table.rows)} ablation rows to {cfg.out}/ablation.json")
        elif args.command == "report":
            for path in cmd_report(cfg):
                print(path)
        return 0
    except (ConfigError, GraphValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
