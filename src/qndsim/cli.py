"""Command-line entry point.

Subcommands:

* ``sweep``          - run one observable over the phi grid, write CSV/JSON.
* ``repeat``         - repeat the protocol on the Bell-state input point.
* ``criteria``       - full three-criteria pipeline across observables and
                       seeds, written as a JSON report.
* ``check-identity`` - explicit-operator cross-check of the coherence
                       circuit's closed-form output.

A JSON config file may be passed with --config: a config echo from a JSON
output, optionally with an ``output_path``. Explicit flags override its
values. Exit status is 0 on success, 2 on any configuration or runtime
error (the diagnostic goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .circuits import NoiseModel
from .experiments import OBSERVABLES, PrepParams, visibility_identity_check
from .harness import (
    SweepConfig,
    compute_fits,
    emit,
    repeat_fixed_state,
    run_criteria_protocol,
    run_sweep,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--observable", choices=OBSERVABLES, help="observable to measure")
    p.add_argument("--theta", type=float, help="preparation angle theta (default per observable)")
    p.add_argument("--lambda", dest="lam", type=float, help="preparation angle lambda (default 0)")
    p.add_argument("--shots", type=int, help="shots per circuit configuration (default 5000)")
    p.add_argument("--exact", action="store_true", default=None,
                   help="read the outcome distributions instead of sampling them")
    p.add_argument("--noise-1q", type=float, help="depolarizing probability per 1-qubit gate")
    p.add_argument("--noise-2q", type=float, help="depolarizing probability per 2-qubit gate")
    p.add_argument("--readout-flip", type=float, help="readout flip probability per bit")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    p.add_argument("--out", help="output file path")
    p.add_argument("--config", help="JSON config file; flags override its values")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qndsim", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="phi sweep of one observable")
    _add_common(p_sweep)
    p_sweep.add_argument("--phi-start", type=float, help="first phi value (default 0)")
    p_sweep.add_argument("--phi-steps", type=int, help="number of phi points (default 64)")
    p_sweep.add_argument("--phi-step", type=float, help="phi increment (default pi/32)")

    p_rep = sub.add_parser("repeat", help="repeat the Bell-input experiment")
    _add_common(p_rep)
    p_rep.add_argument("--repetitions", type=int, default=50,
                       help="number of repetitions (default 50)")

    p_crit = sub.add_parser("criteria", help="three-criteria pipeline report")
    p_crit.add_argument("--seeds", type=int, default=20,
                        help="number of seeds, at least 1 (default 20)")
    p_crit.add_argument("--phi-steps", type=int, default=16, help="phi points per sweep")
    p_crit.add_argument("--shots", type=int, default=2000, help="shots per configuration")
    p_crit.add_argument("--noise-1q", type=float, default=0.0)
    p_crit.add_argument("--noise-2q", type=float, default=0.0)
    p_crit.add_argument("--readout-flip", type=float, default=0.0)
    p_crit.add_argument("--out", required=True, help="JSON report path")

    p_chk = sub.add_parser("check-identity",
                           help="operator cross-check of the coherence-circuit output")
    p_chk.add_argument("--grid", type=int, default=5, help="grid points per angle (default 5)")
    p_chk.add_argument("--atol", type=float, default=1e-8)

    return parser


def _build_config(args: argparse.Namespace) -> tuple[SweepConfig, str]:
    """The config file overlaid with the flags, and the output path."""
    values: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    flags = {
        "observable": args.observable,
        "theta": args.theta,
        "lambda": args.lam,
        "phi_start": getattr(args, "phi_start", None),
        "phi_count": getattr(args, "phi_steps", None),
        "phi_step": getattr(args, "phi_step", None),
        "shots": args.shots,
        "exact_mode": args.exact,
        "master_seed": args.seed,
        "output_path": args.out,
    }
    values.update({k: v for k, v in flags.items() if v is not None})
    noise_flags = {"depol_1q": args.noise_1q, "depol_2q": args.noise_2q,
                   "readout_flip": args.readout_flip}
    noise_flags = {k: v for k, v in noise_flags.items() if v is not None}
    noise = values.get("noise", {})
    if noise_flags and isinstance(noise, dict):
        if noise.get("enabled") is False:
            noise = {}  # a disabled model's probabilities are all zero
        values["noise"] = {**noise, **noise_flags}
    config = SweepConfig.from_dict(values)
    out = values.get("output_path")
    if not out or not isinstance(out, str):
        raise ValueError(f"--out or a config file's output_path is required, got {out!r}")
    return config, out


def _cmd_sweep(args: argparse.Namespace) -> int:
    config, out = _build_config(args)
    records = run_sweep(config)
    fmt = args.format or "csv"
    # only JSON carries fits
    fits = compute_fits(records, config.observable) if fmt == "json" else None
    emit(records, fmt, out, config, fits)
    print(f"wrote {len(records)} sweep points to {out}")
    return 0


def _cmd_repeat(args: argparse.Namespace) -> int:
    config, out = _build_config(args)
    records = repeat_fixed_state(config, args.repetitions)
    emit(records, args.format or "csv", out, config)
    print(f"wrote {len(records)} repetitions to {out}")
    return 0


def _cmd_criteria(args: argparse.Namespace) -> int:
    noise = NoiseModel(args.noise_1q, args.noise_2q, args.readout_flip)
    report = run_criteria_protocol(
        seeds=list(range(args.seeds)),
        phi_count=args.phi_steps,
        shots=args.shots,
        noise=noise,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        # one write: json.dump writes every token on its own
        fh.write(json.dumps(report, indent=2) + "\n")
    m = report["mean_average_errors"]
    print(
        "mean averaged errors: "
        f"input-tomo {m['E_input_tomo']:.4f}, qnd {m['E_qnd']:.4f}, "
        f"output-tomo {m['E_output_tomo']:.4f} -> {args.out}"
    )
    return 0


def _cmd_check_identity(args: argparse.Namespace) -> int:
    import numpy as np

    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    grid = np.linspace(0.0, 2 * math.pi, args.grid)
    params = [PrepParams(phi, theta) for phi in grid for theta in grid]
    ok = visibility_identity_check(params, atol=args.atol)
    print(f"operator identity over {len(params)} points: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "repeat": _cmd_repeat,
        "criteria": _cmd_criteria,
        "check-identity": _cmd_check_identity,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
