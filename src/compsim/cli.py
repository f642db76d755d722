"""Command-line front end: codebook training, simulation runs, bound tables.

Subcommands:
  train-codebook  write the text form of one codebook a run builds (optionally
                  from a scenario's composite-direction distribution)
  simulate        run a preset or a scenario config and emit metric rows as CSV
  bound           print the closed-form rate-loss bounds (and optionally the
                  derivation-step checks) for one placement

CSV schema (stable across commands):
  experiment,arm,sweep,sweep_value,user,metric,value,trials,seed
One metric per row; floats printed with 17 significant digits; progress goes
to stderr so stdout stays clean when '-' is the output path.
Exit codes: 0 success, 2 configuration error, 3 runtime/numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import bounds, montecarlo, quantization
from . import scenario as scenariomod
from .errors import CompsimError, ConfigurationError, EstimationError, raise_problems

CSV_HEADER = "experiment,arm,sweep,sweep_value,user,metric,value,trials,seed"


@dataclass
class MetricsRow:
    experiment: str
    arm: str
    sweep: str  # sweep variable name, empty when not swept
    sweep_value: object  # float | int | None
    user: object  # int | None
    metric: str
    value: float
    trials: int
    seed: int


def _fmt_value(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def format_rows(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        if not np.isfinite(r.value):
            raise EstimationError(f"non-finite metric value for {r.metric}")
        lines.append(
            ",".join(
                [
                    r.experiment,
                    r.arm,
                    r.sweep,
                    _fmt_value(r.sweep_value),
                    "" if r.user is None else str(int(r.user)),
                    r.metric,
                    _fmt_value(r.value),
                    str(int(r.trials)),
                    str(int(r.seed)),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _write_output(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def _progress(msg: str):
    print(msg, file=sys.stderr)


def _placed(scn: scenariomod.Scenario, at: float | None) -> scenariomod.Scenario:
    """``scn`` with its users at fixed positions, a sweep resolved at ``at`` m."""
    if scn.placement.mode == "random_uniform":
        raise ConfigurationError(
            "placement.mode: random_uniform drops have no fixed positions; "
            "use a fixed or line_sweep scenario"
        )
    if scn.placement.mode == "fixed":
        if at is not None:
            raise ConfigurationError("--at: the scenario has no sweep")
        return scn
    if at is None:
        raise ConfigurationError("sweep scenario: pick the position with --at <meters>")
    return scenariomod.at_sweep_point(scn, at)


def _sweep_name(scn: scenariomod.Scenario) -> str:
    """The CSV sweep column of a line sweep: the swept user's distance."""
    if scn.placement.mode != "line_sweep":
        return ""
    return f"ms{scn.placement.sweep_user + 1}_distance_m"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _load_experiment(args) -> scenariomod.Experiment:
    if args.preset:
        exp = scenariomod.preset(args.preset)
    else:
        with open(args.config, "r", encoding="utf-8") as fh:
            scn = scenariomod.parse(fh.read())
        exp = scenariomod.Experiment(name="custom", arms=[scenariomod.Arm("run", scn)])
    arms = []
    for arm in exp.arms:
        scn = scenariomod.apply_env_overrides(arm.scenario)
        if args.seed is not None:
            scn = replace(scn, master_seed=args.seed)
        if args.trials is not None:
            scenariomod.check_trials_override(scn, "--trials")
            scn = replace(scn, trials=args.trials)
        arms.append(scenariomod.Arm(arm.label, scn))
    return scenariomod.Experiment(name=exp.name, arms=arms)


def _user_bounds(scn: scenariomod.Scenario, ctx) -> list:
    """(closed-form bound, interference terms) per user, from the per-cell
    codebooks' cached expected errors."""
    params = bounds.RateLossParams.from_large_scale(
        ctx.large_scale, scn.n_tx, ctx.feedback.expected_error_matrix())
    return [bounds.rate_loss_bound_general(params, k) for k in range(scn.n_users)]


def _simulate_run_rows(exp_name, label, scn, workers) -> list:
    rows = []
    sweep_name = _sweep_name(scn)
    for sweep_value, fixed in scenariomod.resolved_points(scn):
        ctx = montecarlo.build_context(fixed)
        result = montecarlo.aggregate(fixed, montecarlo.run_trials(ctx, fixed.trials, workers))
        with_bound = ctx.feedback.mode == "per_cell" and scn.n_users >= 2
        bound_vals = _user_bounds(fixed, ctx) if with_bound else None
        for k in range(scn.n_users):
            metrics = [
                ("throughput_mean", result.throughput_mean[k]),
                ("throughput_se", result.throughput_se[k]),
                ("ideal_throughput_mean", result.ideal_throughput_mean[k]),
                ("ideal_throughput_se", result.ideal_throughput_se[k]),
                ("rate_loss_mc", result.delta_r[k]),
                ("rate_loss_mc_se", result.delta_r_se[k]),
            ]
            if bound_vals is not None:
                metrics.append(("rate_loss_bound", bound_vals[k][0]))
            for name, value in metrics:
                rows.append(
                    MetricsRow(exp_name, label, sweep_name, sweep_value, k, name,
                               float(value), scn.trials, scn.master_seed)
                )
        rows.append(
            MetricsRow(exp_name, label, sweep_name, sweep_value, None, "failures",
                       float(result.failures), scn.trials, scn.master_seed)
        )
        _progress(f"{exp_name}/{label}: point {sweep_value} done")
    return rows


def _simulate_cdf_rows(exp_name, label, scn, workers) -> list:
    rows = []
    result = montecarlo.run_cdf(scn, workers=workers)
    for arm_label, values in ((label, result.quantized), (f"{label}:ideal", result.ideal)):
        for d in range(scn.drops):
            for k in range(scn.n_users):
                v = values[d, k]
                if not np.isfinite(v):
                    continue
                rows.append(
                    MetricsRow(exp_name, arm_label, "drop", d, k, "throughput_sample",
                               float(v), scn.trials_per_drop, scn.master_seed)
                )
    rows.append(
        MetricsRow(exp_name, label, "", None, None, "failed_draws",
                   float(result.failed_draws), scn.trials_per_drop, scn.master_seed)
    )
    _progress(f"{exp_name}/{label}: {scn.drops} drops done")
    return rows


def cmd_simulate(args) -> int:
    montecarlo.check_workers(args.workers)
    exp = _load_experiment(args)
    rows = []
    for arm in exp.arms:
        scn = arm.scenario
        if scn.placement.mode == "random_uniform":
            rows.extend(_simulate_cdf_rows(exp.name, arm.label, scn, args.workers))
        else:
            rows.extend(_simulate_run_rows(exp.name, arm.label, scn, args.workers))
    out = args.out
    if out is None:
        out = exp.arms[0].scenario.output_csv or "-"
    _write_output(format_rows(rows), out)
    return 0


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def cmd_bound(args) -> int:
    if args.trials is not None and not args.verify_appendix:
        raise_problems([("--trials", "only applies with --verify-appendix")])
    exp = _load_experiment(args)
    arm = exp.arms[0]
    if args.arm:
        matches = [a for a in exp.arms if a.label == args.arm]
        if not matches:
            raise ConfigurationError(f"no arm labeled {args.arm!r}")
        arm = matches[0]
    sweep_name = _sweep_name(arm.scenario)
    scn = _placed(arm.scenario, args.at)
    if scn.feedback.mode != "per_cell":
        raise ConfigurationError("the closed-form bound applies to per-cell feedback")

    ctx = montecarlo.build_context(scn)
    rows = []
    lines = []
    lines.append(f"rate-loss bounds for {exp.name}/{arm.label}"
                 + (f" at {args.at:g} m" if args.at is not None else ""))
    for k, (value, i_terms) in enumerate(_user_bounds(scn, ctx)):
        # a closed form draws nothing: its value rests on user k's error estimates
        draws = min(quantization.error_estimate(cb)["draws"] for cb in ctx.feedback.codebooks[k])
        lines.append(f"  user {k}: bound {value:.6f} bits/s/Hz")
        rows.append(MetricsRow(exp.name, arm.label, sweep_name, args.at, k,
                               "rate_loss_bound", value, draws, scn.master_seed))
        for j, term in sorted(i_terms.items()):
            lines.append(f"    interference term from user {j}: {term:.6f}")
            rows.append(MetricsRow(exp.name, arm.label, sweep_name, args.at, k,
                                   f"interference_term:{j}", term, draws, scn.master_seed))

    if args.verify_appendix:
        checks = bounds.verify_appendix(
            scn.n_tx, ctx.large_scale, ctx.feedback.codebooks,
            args.trials or 100_000, scn.master_seed,
        )
        lines.append("derivation-step checks:")
        for c in checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"  {c.step}: lhs={c.lhs:.6g} rhs={c.rhs:.6g} se={c.se:.3g} [{status}]"
            )
            rows.append(MetricsRow(exp.name, arm.label, sweep_name, args.at, None,
                                   f"appendix_check:{c.step}", 1.0 if c.passed else 0.0,
                                   c.draws, scn.master_seed))

    print("\n".join(lines))
    if args.out:
        _write_output(format_rows(rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# train-codebook
# ---------------------------------------------------------------------------

def cmd_train_codebook(args) -> int:
    profile = None
    if args.config:
        # Train on the composite-direction distribution of one scenario user.
        with open(args.config, "r", encoding="utf-8") as fh:
            scn = _placed(scenariomod.parse(fh.read()), args.at)
        user = 0 if args.user is None else args.user
        if not 0 <= user < scn.n_users:
            raise ConfigurationError(f"--user must be a user index in [0, {scn.n_users})")
        if args.dimension != scn.geometry.n_cells * scn.n_tx:
            raise ConfigurationError(
                f"--dimension must equal the composite length "
                f"{scn.geometry.n_cells * scn.n_tx} of the scenario"
            )
        profile = montecarlo.large_scale_map(scn, scn.placement.positions).energy_split()[user]
    else:
        raise_problems([(flag, "only applies with --config")
                        for flag, value in (("--at", args.at), ("--user", args.user))
                        if value is not None])

    cb = quantization.build_codebook(args.dimension, args.bits, args.kind, args.seed, profile)
    _write_output(quantization.codebook_text(cb), args.out)
    _progress(f"wrote {args.out}: dimension {cb.dimension}, bits {cb.bits}, "
              f"E{{sin^2}} = {quantization.error_estimate(cb)['mean']:.6f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compsim",
        description="Multicell cooperative MU-MIMO simulator with limited feedback",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a preset or scenario config, emit CSV")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=scenariomod.PRESET_NAMES)
    src.add_argument("--config", help="path to a scenario JSON document")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--out", default=None,
                     help="CSV path, '-' for stdout (default: the scenario's "
                          "output_csv, else stdout)")
    sim.set_defaults(func=cmd_simulate)

    bnd = sub.add_parser("bound", help="closed-form rate-loss bound table")
    src = bnd.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=scenariomod.PRESET_NAMES)
    src.add_argument("--config")
    bnd.add_argument("--arm", default=None, help="arm label (default: first arm)")
    bnd.add_argument("--at", type=float, default=None,
                     help="sweep-user distance in meters for swept scenarios")
    bnd.add_argument("--verify-appendix", action="store_true",
                     help="also run the derivation-step Monte Carlo checks")
    bnd.add_argument("--seed", type=int, default=None)
    bnd.add_argument("--trials", type=int, default=None,
                     help="trials for the appendix checks (default 100000)")
    bnd.add_argument("--out", default=None, help="also write rows as CSV")
    bnd.set_defaults(func=cmd_bound)

    trn = sub.add_parser("train-codebook", help="train and write one codebook")
    trn.add_argument("--dimension", type=int, required=True)
    trn.add_argument("--bits", type=int, required=True)
    trn.add_argument("--kind", choices=("lloyd", "random"), default="lloyd")
    trn.add_argument("--seed", type=int, default=7001)
    trn.add_argument("--config", default=None,
                     help="scenario JSON: train on a user's composite-direction "
                          "distribution instead of isotropic input")
    trn.add_argument("--user", type=int, default=None,
                     help="scenario user whose distribution to train on (default 0)")
    trn.add_argument("--at", type=float, default=None,
                     help="sweep-user distance in meters for swept scenarios")
    trn.add_argument("--out", required=True, help="codebook path, '-' for stdout")
    trn.set_defaults(func=cmd_train_codebook)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return 2
    except (CompsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
