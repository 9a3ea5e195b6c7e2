"""Command line front end: run scenarios, sweep a parameter, calibrate combs,
and validate configs without running them."""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .scenario import ConfigError, load_config, parse_scenario, \
    run_scenario, sweep, write_bundle


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nyquist-otdm",
        description="Simulate electrically sampled Nyquist-pulse optical TDM "
                    "links and flat frequency-comb generation.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario config")
    run_p.add_argument("config", type=Path, help="scenario JSON file")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    run_p.add_argument("--out-dir", type=Path, default=None,
                       help="write a report bundle here")

    sweep_p = sub.add_parser("sweep", help="run a config once per value of "
                                           "one parameter")
    sweep_p.add_argument("config", type=Path)
    sweep_p.add_argument("--param", required=True,
                         help="dotted config path, e.g. noise.osnr_db")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 20,25,30; a list "
                              "may start with a negative value, e.g. -5,0")
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--out-dir", type=Path, default=None,
                         help="write one bundle per value under this directory")

    cal_p = sub.add_parser("calibrate-comb",
                           help="find dual-drive modulator settings for a "
                                "flat comb")
    cal_p.add_argument("--lines", type=int, default=3,
                       help="number of comb lines (odd)")
    cal_p.add_argument("--spacing-ghz", type=float, required=True,
                       help="line spacing in GHz")
    cal_p.add_argument("--flatness-target-db", type=float, default=0.1)
    cal_p.add_argument("--modulation-index", type=float, default=0.3)
    cal_p.add_argument("--v-pi", type=float, default=0.42,
                       help="switching voltage in volts")
    cal_p.add_argument("--eo-bandwidth-ghz", type=float, default=16.0,
                       help="electro-optic 3 dB bandwidth in GHz")
    cal_p.add_argument("--extinction-arm1-db", type=float, default=40.0)
    cal_p.add_argument("--extinction-arm2-db", type=float, default=37.0)
    cal_p.add_argument("--out-dir", type=Path, default=None)

    val_p = sub.add_parser("validate", help="check a config and exit")
    val_p.add_argument("config", type=Path)
    return parser


def _parse_values(text: str) -> list:
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ConfigError("--values", "empty value in list")
        if re.fullmatch(r"[+-]?\d+", part):
            values.append(int(part))
        else:
            try:
                values.append(float(part))
            except ValueError:
                raise ConfigError("--values", f"not a number: {part!r}") from None
    return values


def _load(args) -> dict:
    raw = load_config(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    return raw


def _report(bundle, out_dir) -> None:
    """Print a bundle's summary and, given a directory, write it there."""
    print(bundle.summary())
    if out_dir is not None:
        for p in write_bundle(bundle, out_dir):
            print(f"wrote {p}")


def _cmd_run(args) -> int:
    _report(run_scenario(parse_scenario(_load(args))), args.out_dir)
    return 0


def _cmd_sweep(args) -> int:
    values = _parse_values(args.values)
    tags = [re.sub(r"[^A-Za-z0-9_.+-]", "_", str(v)) for v in values]
    if args.out_dir is not None:
        for i, tag in enumerate(tags):
            if tag in tags[:i]:
                raise ConfigError("--values", f"two values would write the "
                                  f"same bundle {args.param}={tag}")
    bundles = sweep(_load(args), args.param, values)
    for value, tag, bundle in zip(values, tags, bundles):
        print(f"--- {args.param} = {value} ---")
        _report(bundle, None if args.out_dir is None
                else args.out_dir / f"{args.param}={tag}")
    return 0


def _cmd_calibrate(args) -> int:
    # the flags fill a comb-mode config, so they meet its bounds and a bad
    # one is reported by its config field; the verb then prints and writes
    # what `run` does for that config
    _report(run_scenario(parse_scenario({
        "version": 1, "mode": "comb",
        "comb": {"n_lines": args.lines, "spacing_hz": args.spacing_ghz * 1e9,
                 "flatness_target_db": args.flatness_target_db,
                 "modulation_index": args.modulation_index},
        "mzm": {"v_pi_volts": args.v_pi,
                "eo_3db_bandwidth_hz": args.eo_bandwidth_ghz * 1e9,
                "dc_extinction_arm1_db": args.extinction_arm1_db,
                "dc_extinction_arm2_db": args.extinction_arm2_db},
    })), args.out_dir)
    return 0


def _cmd_validate(args) -> int:
    parse_scenario(load_config(args.config))
    print("ok")
    return 0


def _join_values(argv: list) -> list:
    # argparse reads a word that starts with "-" and is not a plain number
    # (-5,0) as an option, so a value list is joined to its flag
    for i, arg in enumerate(argv[:-1]):
        if arg == "--values" and re.match(r"-\.?\d", argv[i + 1]):
            return argv[:i] + [f"--values={argv[i + 1]}"] + argv[i + 2:]
    return argv


def main(argv=None) -> int:
    args = _build_parser().parse_args(
        _join_values(sys.argv[1:] if argv is None else list(argv)))
    handler = {"run": _cmd_run, "sweep": _cmd_sweep,
               "calibrate-comb": _cmd_calibrate, "validate": _cmd_validate}
    try:
        return handler[args.command](args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
