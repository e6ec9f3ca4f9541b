"""Command-line entry point.

Subcommands:

* ``sweep``          - run one observable over the phi grid, write CSV/JSON.
* ``repeat``         - repeat the protocol on the Bell-state input point.
* ``criteria``       - full three-criteria pipeline across observables and
                       seeds, written as a JSON report.
* ``check-identity`` - explicit-operator cross-check of the coherence
                       circuit's closed-form output.

A JSON config file may be passed with --config; explicit flags override its
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
                   help="exact probabilities instead of sampling")
    p.add_argument("--noise-1q", type=float, help="depolarizing probability per 1-qubit gate")
    p.add_argument("--noise-2q", type=float, help="depolarizing probability per 2-qubit gate")
    p.add_argument("--readout-flip", type=float, help="readout flip probability per bit")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--workers", type=int, help="concurrent sweep points (default 1)")
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
    p_crit.add_argument("--seeds", type=int, default=20, help="number of seeds (default 20)")
    p_crit.add_argument("--phi-steps", type=int, default=16, help="phi points per sweep")
    p_crit.add_argument("--shots", type=int, default=2000, help="shots per configuration")
    p_crit.add_argument("--noise-1q", type=float, default=0.0)
    p_crit.add_argument("--noise-2q", type=float, default=0.0)
    p_crit.add_argument("--readout-flip", type=float, default=0.0)
    p_crit.add_argument("--workers", type=int, default=1)
    p_crit.add_argument("--out", required=True, help="JSON report path")

    p_chk = sub.add_parser("check-identity",
                           help="operator cross-check of the coherence-circuit output")
    p_chk.add_argument("--grid", type=int, default=5, help="grid points per angle (default 5)")
    p_chk.add_argument("--atol", type=float, default=1e-8)

    return parser


def _build_noise(values: dict) -> NoiseModel:
    d1 = values.get("noise_1q") or 0.0
    d2 = values.get("noise_2q") or 0.0
    rf = values.get("readout_flip") or 0.0
    if d1 == 0.0 and d2 == 0.0 and rf == 0.0:
        return NoiseModel.none()
    return NoiseModel(depol_1q=d1, depol_2q=d2, readout_flip=rf, enabled=True)


def _build_config(args: argparse.Namespace) -> SweepConfig:
    values: dict = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            values.update(json.load(fh))
    if "lambda" in values:  # emitted config echoes use the spelled-out key
        values.setdefault("lam", values.pop("lambda"))
    overrides = {
        "observable": args.observable,
        "theta": args.theta,
        "lam": args.lam,
        "phi_start": getattr(args, "phi_start", None),
        "phi_count": getattr(args, "phi_steps", None),
        "phi_step": getattr(args, "phi_step", None),
        "shots": args.shots,
        "exact_mode": args.exact,
        "noise_1q": getattr(args, "noise_1q", None),
        "noise_2q": getattr(args, "noise_2q", None),
        "readout_flip": getattr(args, "readout_flip", None),
        "master_seed": args.seed,
        "workers": args.workers,
        "output_path": args.out,
    }
    values.update({k: v for k, v in overrides.items() if v is not None})
    if not values.get("observable"):
        raise ValueError("an observable is required (--observable or config file)")
    noise_spec = values.get("noise")
    if isinstance(noise_spec, dict):
        noise = NoiseModel(
            depol_1q=noise_spec.get("depol_1q", 0.0),
            depol_2q=noise_spec.get("depol_2q", 0.0),
            readout_flip=noise_spec.get("readout_flip", 0.0),
            enabled=noise_spec.get("enabled", True),
        )
        if any(values.get(k) is not None for k in ("noise_1q", "noise_2q", "readout_flip")):
            noise = _build_noise(values)
    else:
        noise = _build_noise(values)
    return SweepConfig(
        observable=values["observable"],
        theta=values.get("theta"),
        lam=values.get("lam", 0.0),
        phi_start=values.get("phi_start", 0.0),
        phi_count=values.get("phi_count", 64),
        phi_step=values.get("phi_step", math.pi / 32),
        shots=values.get("shots", 5000),
        exact_mode=bool(values.get("exact_mode", False)),
        noise=noise,
        master_seed=values.get("master_seed", 0),
        output_path=values.get("output_path"),
        workers=values.get("workers", 1),
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if not config.output_path:
        raise ValueError("--out is required")
    records = run_sweep(config)
    fmt = args.format or "csv"
    # only JSON carries fits
    fits = compute_fits(records, config.observable) if fmt == "json" else None
    emit(records, fmt, config.output_path, config, fits)
    print(f"wrote {len(records)} sweep points to {config.output_path}")
    return 0


def _cmd_repeat(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if not config.output_path:
        raise ValueError("--out is required")
    records = repeat_fixed_state(config, args.repetitions)
    emit(records, args.format or "csv", config.output_path, config)
    print(f"wrote {len(records)} repetitions to {config.output_path}")
    return 0


def _cmd_criteria(args: argparse.Namespace) -> int:
    noise = _build_noise(vars(args))
    report = run_criteria_protocol(
        seeds=list(range(args.seeds)),
        phi_count=args.phi_steps,
        shots=args.shots,
        noise=noise,
        workers=args.workers,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    m = report["mean_average_errors"]
    print(
        "mean averaged errors: "
        f"input-tomo {m['E_input_tomo']:.4f}, qnd {m['E_qnd']:.4f}, "
        f"output-tomo {m['E_output_tomo']:.4f} -> {args.out}"
    )
    return 0


def _cmd_check_identity(args: argparse.Namespace) -> int:
    import numpy as np

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
