"""Command line pipeline from raw trip logs to simulated marketplace runs.

Subcommands, in pipeline order:

  synth      write a synthetic trip log driven by a known decision rule
  ingest     parse and clean a raw trip log
  fit        fit location, distance and demand models from the cleaned log
  generate   sample ride requests from the fitted models
  train-bc   imitate the logged driver decisions
  train-rl   refine the imitation agent inside the simulator
  evaluate   replicate simulations and compare them against the log
  sweep      retrain and re-evaluate across values of one platform knob

Each step reads the previous step's artifacts from the output directory and
fails with the name of the producing subcommand when one is missing. Exit
codes: 0 success, 1 bad usage, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .agent import CategoricalQAgent, FeatureScales
from .artifacts import (read_csv_artifact, seed_stream, write_artifact,
                        write_csv_artifact)
from .config import (Config, ConfigError, config_from_dict, config_hash,
                     config_to_dict, load_config)
from .distributions import (distribution_lines, fit_empirical,
                            fit_time_profile, read_distribution,
                            read_time_profile, time_profile_lines)
from .ingest import (LOG_COLUMNS, clean, driver_weekly_averages,
                     extract_demonstrations, read_trip_log, record_to_row,
                     training_window, window_records)
from .metrics import (ACCEPTANCE_COLUMNS, DAILY_COUNT_COLUMNS,
                      acceptance_by_distance, acceptance_by_hour, curve_pearson,
                      curve_rows, daily_counts, delta_percent, pearson)
from .ridegen import RIDE_COLUMNS, ride_to_row
from .sim import Action, SimConfig, ride_stream, run_episode
from .synth import generate_synthetic_log
from .training import build_agent_for_demonstrations, train_bc, train_rl


class PipelineError(RuntimeError):
    pass


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise PipelineError(f"missing {path}; run `ridesim {producer}` first")
    return path


def _load(args) -> tuple[Config, Path, str]:
    overrides = list(args.overrides or [])
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.out is not None:
        overrides.append(f"paths.out_dir={args.out}")
    cfg = load_config(args.config, overrides)
    return cfg, Path(cfg.paths.out_dir), config_hash(cfg)


def _read_cleaned(path) -> list:
    records, rejects = read_trip_log(path)
    if rejects:
        raise PipelineError(f"{path} row {rejects[0].row_number}: "
                            f"{rejects[0].reason}")
    if not records:
        raise PipelineError(f"{path} contains no trips")
    return records


def _read_fitted(out: Path):
    _, px = read_distribution(_require(out / "dist_pickup_x.txt", "fit"))
    _, py = read_distribution(_require(out / "dist_pickup_y.txt", "fit"))
    _, tkm = read_distribution(_require(out / "dist_trip_km.txt", "fit"))
    profile = read_time_profile(_require(out / "time_profile.txt", "fit"))
    return px, py, tkm, profile


def _initial_trips(cfg: Config, out: Path):
    if cfg.sim.initial_weekly_trips is not None:
        return cfg.sim.initial_weekly_trips
    averages = out / "driver_averages.csv"
    if not averages.exists():
        return None
    columns, rows = read_csv_artifact(averages)
    if columns != ["driver_id", "weekly_trips"]:
        raise PipelineError(f"{averages}: unexpected columns {columns}")
    seq = []
    for number, (_, text) in enumerate(rows, start=1):
        try:
            trips = float(text)
        except ValueError:
            trips = math.nan
        if not 0 <= trips < math.inf:  # NaN fails too
            raise PipelineError(f"{averages} row {number}: weekly_trips "
                                f"{text!r} is not a non-negative number")
        seq.append(int(trips + 0.5))
    return seq or None


def _build_sim_config(cfg: Config, out: Path) -> SimConfig:
    px, py, tkm, profile = _read_fitted(out)
    settings = vars(cfg.sim) | {"initial_weekly_trips":
                                _initial_trips(cfg, out)}
    return SimConfig(grid=cfg.grid, params=cfg.platform,
                     pickup_x_dist=px, pickup_y_dist=py,
                     trip_distance_dist=tkm, time_profile=profile, **settings)


def _stamp_agent(path: Path, digest: str, seed: int):
    # prepend provenance comments to a checkpoint written during training
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("#")]
    write_artifact(path, lines, __version__, digest, seed)


def _find_agent(out: Path, explicit) -> Path:
    if explicit is not None:
        path = Path(explicit)
        if not path.exists():
            raise PipelineError(f"agent checkpoint {path} does not exist")
        return path
    for name in ("agent_rl.txt", "agent_bc.txt"):
        if (out / name).exists():
            return out / name
    raise PipelineError(f"no agent checkpoint in {out}; "
                        "run `ridesim train-bc` first")


def cmd_synth(args) -> int:
    cfg, out, digest = _load(args)
    records = generate_synthetic_log(cfg.synth, cfg.grid, cfg.platform,
                                     cfg.sim.speed_kmh, cfg.seed)
    rows = [record_to_row(r) for r in records]
    path = out / "synthetic_trips.csv"
    write_csv_artifact(path, LOG_COLUMNS, rows, __version__, digest, cfg.seed)
    accepted = sum(1 for r in records if r.status == "completed")
    print(f"wrote {len(rows)} offers ({accepted} completed) to {path}")
    return 0


def cmd_ingest(args) -> int:
    cfg, out, digest = _load(args)
    log_path = args.trip_log or cfg.paths.trip_log
    if not log_path:
        raise PipelineError("no trip log given: set paths.trip_log "
                            "or pass --trip-log")
    records, rejects = read_trip_log(log_path)
    if not records and not rejects:
        raise PipelineError(f"{log_path} contains no data rows")
    kept, report = clean(records, cfg.grid.latlon_bounds())
    write_csv_artifact(out / "cleaned_trips.csv", LOG_COLUMNS,
                       [record_to_row(r) for r in kept],
                       __version__, digest, cfg.seed)
    write_csv_artifact(out / "rejects.csv", ["row", "reason"],
                       [[str(r.row_number), r.reason] for r in rejects],
                       __version__, digest, cfg.seed)
    report_lines = [f"parse_rejected {len(rejects)}"] + report.to_lines()
    write_artifact(out / "cleaning_report.txt", report_lines,
                   __version__, digest, cfg.seed)
    print(f"parsed {len(records)} trips ({len(rejects)} rejected rows), "
          f"kept {report.retained_count} after cleaning")
    print(f"artifacts in {out}")
    return 0


def cmd_fit(args) -> int:
    cfg, out, digest = _load(args)
    records = _read_cleaned(_require(out / "cleaned_trips.csv", "ingest"))
    train_win, _ = training_window(records, cfg.demand.holdout_days)
    train = window_records(records, train_win)
    if len(train) < 2:
        raise PipelineError("training window holds fewer than 2 trips")
    xs, ys = [], []
    for rec in train:
        x, y = cfg.grid.to_xy(rec.pickup_lat, rec.pickup_lon)
        xs.append(x)
        ys.append(y)
    fits = [("pickup_x", fit_empirical(xs), "dist_pickup_x.txt"),
            ("pickup_y", fit_empirical(ys), "dist_pickup_y.txt"),
            ("trip_km", fit_empirical([r.trip_distance_km for r in train]),
             "dist_trip_km.txt")]
    for name, dist, filename in fits:
        write_artifact(out / filename, distribution_lines(dist, name),
                       __version__, digest, cfg.seed)
    profile = fit_time_profile([r.created_time for r in train],
                               cfg.demand.scale_factor)
    write_artifact(out / "time_profile.txt", time_profile_lines(profile),
                   __version__, digest, cfg.seed)
    averages = driver_weekly_averages(train)
    write_csv_artifact(out / "driver_averages.csv",
                       ["driver_id", "weekly_trips"],
                       [[d, f"{v:.6f}"] for d, v in averages.items()],
                       __version__, digest, cfg.seed)
    weekly = profile.expected_weekly() * cfg.demand.scale_factor
    print(f"fitted {len(train)} trips from {train_win[0]:%Y-%m-%d} "
          f"to {train_win[1]:%Y-%m-%d}")
    print(f"estimated demand {weekly:.0f} requests/week "
          f"(simulated at 1/{cfg.demand.scale_factor:g} scale)")
    return 0


def cmd_generate(args) -> int:
    cfg, out, digest = _load(args)
    stream = ride_stream(_build_sim_config(cfg, out),
                         seed_stream(cfg.seed, "generate"))
    rides = [ride for _, batch in stream for ride in batch]
    write_csv_artifact(out / "rides.csv", RIDE_COLUMNS,
                       [ride_to_row(r) for r in rides],
                       __version__, digest, cfg.seed)
    print(f"generated {len(rides)} ride requests over "
          f"{cfg.sim.weeks} week(s) to {out / 'rides.csv'}")
    return 0


def _demonstrations(cfg: Config, out: Path) -> list:
    records = _read_cleaned(_require(out / "cleaned_trips.csv", "ingest"))
    train_win, _ = training_window(records, cfg.demand.holdout_days)
    return extract_demonstrations(records, cfg.platform, cfg.grid,
                                  window=train_win,
                                  speed_kmh=cfg.sim.speed_kmh)


def _write_train_report(path: Path, report, metric_column: str,
                        digest: str, seed: int):
    rows = [[str(s.iteration), f"{s.loss:.6f}", f"{s.metric:.6f}"]
            for s in report.iterations]
    write_csv_artifact(path, ["iteration", "loss", metric_column], rows,
                       __version__, digest, seed)


def cmd_train_bc(args) -> int:
    cfg, out, digest = _load(args)
    trajectories = _demonstrations(cfg, out)
    scales = FeatureScales.for_grid(cfg.grid)
    agent = build_agent_for_demonstrations(trajectories, scales,
                                           seed_stream(cfg.seed, "bc-init"),
                                           **vars(cfg.agent))
    agent_path = out / "agent_bc.txt"
    agent_path.parent.mkdir(parents=True, exist_ok=True)
    report = train_bc(agent, trajectories, cfg.bc,
                      seed_stream(cfg.seed, "bc-train"),
                      checkpoint_path=agent_path)
    _stamp_agent(agent_path, digest, cfg.seed)
    _write_train_report(out / "bc_report.csv", report, "holdout_agreement",
                        digest, cfg.seed)
    n_transitions = sum(len(t.transitions) for t in trajectories)
    print(f"imitation training on {len(trajectories)} drivers, "
          f"{n_transitions} decisions")
    print(f"best holdout agreement {report.best_metric:.4f} "
          f"at iteration {report.best_iteration} ({report.stop_reason}, "
          f"{report.wall_clock_s:.1f}s)")
    return 0


def cmd_train_rl(args) -> int:
    cfg, out, digest = _load(args)
    agent = CategoricalQAgent.load(_require(out / "agent_bc.txt", "train-bc"))
    sim_config = _build_sim_config(cfg, out)
    agent_path = out / "agent_rl.txt"
    report = train_rl(agent, sim_config, cfg.rl,
                      seed_stream(cfg.seed, "rl-train"),
                      checkpoint_path=agent_path)
    _stamp_agent(agent_path, digest, cfg.seed)
    _write_train_report(out / "rl_report.csv", report, "episode_reward",
                        digest, cfg.seed)
    print(f"refined over {len(report.iterations)} episodes, best reward "
          f"{report.best_metric:.2f} at iteration {report.best_iteration} "
          f"({report.stop_reason}, {report.wall_clock_s:.1f}s)")
    return 0


def _holdout_actuals(cfg: Config, out: Path):
    """Daily counts and acceptance curves from the held-out log days."""
    cleaned = out / "cleaned_trips.csv"
    if not cleaned.exists() or cfg.demand.holdout_days < 1:
        return None
    records = _read_cleaned(cleaned)
    try:
        _, holdout_win = training_window(records, cfg.demand.holdout_days)
    except ValueError:
        return None
    holdout = window_records(records, holdout_win)
    if not holdout:
        return None
    start, _ = holdout_win
    days = cfg.demand.holdout_days
    counts = [0] * days
    for rec in holdout:
        day = (rec.created_time - start).days
        if 0 <= day < days:
            counts[day] += 1
    decisions = [t for traj in extract_demonstrations(
                     holdout, cfg.platform, cfg.grid, window=holdout_win,
                     speed_kmh=cfg.sim.speed_kmh)
                 for t in traj.transitions]
    return {"start_dow": start.weekday(), "days": days,
            "daily": counts, "decisions": decisions}


def _replicate_and_write(sim_config: SimConfig, agent, cfg: Config, seed: int,
                         stream_prefix: str, out: Path, digest: str,
                         actual_daily=None) -> SimpleNamespace:
    """Replicate episodes; write daily counts and both acceptance curves.

    `cfg` gives the replication count and the demand scale; `seed` names the
    random streams and stamps the headers, so a sweep variant keeps the base
    run's seed. With `actual_daily`, every run is cut to that many days and
    the report compares against it.
    """
    daily, offers, rewards, completed = [], [], [], []
    for i in range(cfg.evaluate.replications):
        rng = seed_stream(seed, f"{stream_prefix}-rep-{i}")
        episode = run_episode(sim_config, agent, rng)
        daily.append(episode.daily_generated)
        offers.extend(episode.offers)
        rewards.append(episode.total_reward)
        completed.append(episode.completed_trips)
    if actual_daily is not None:
        daily = [d[:len(actual_daily)] for d in daily]
    report = daily_counts(daily, actual_daily,
                          start_dow=sim_config.start_dow,
                          scale=cfg.demand.scale_factor)
    hour_curve = acceptance_by_hour(offers)
    dist_curve = acceptance_by_distance(offers)
    for name, columns, rows in (
            ("daily_counts.csv", DAILY_COUNT_COLUMNS, report.to_rows()),
            ("acceptance_by_hour.csv", ACCEPTANCE_COLUMNS,
             curve_rows(hour_curve)),
            ("acceptance_by_distance.csv", ACCEPTANCE_COLUMNS,
             curve_rows(dist_curve))):
        write_csv_artifact(out / name, columns, rows, __version__, digest,
                           seed)
    return SimpleNamespace(report=report, offers=offers, rewards=rewards,
                           completed=completed, hour_curve=hour_curve,
                           dist_curve=dist_curve)


def _correlation_line(name: str, fn) -> str:
    try:
        return f"{name} {fn():.6f}"
    except ValueError:
        return f"{name} unavailable"


def cmd_evaluate(args) -> int:
    cfg, out, digest = _load(args)
    agent_path = _find_agent(out, args.agent)
    agent = CategoricalQAgent.load(agent_path)
    agent.epsilon = 0.0  # evaluate the learned policy, not exploration
    sim_config = _build_sim_config(cfg, out)

    actuals = _holdout_actuals(cfg, out)
    if actuals is not None:
        weeks = max(1, -(-actuals["days"] // 7))
        sim_config = replace(sim_config, weeks=weeks,
                             start_dow=actuals["start_dow"])
    actual_series = None if actuals is None else actuals["daily"]
    runs = _replicate_and_write(sim_config, agent, cfg, cfg.seed, "evaluate",
                                out, digest, actual_series)

    offers = runs.offers
    accepted = sum(1 for o in offers if o.action == Action.ACCEPT)
    lines = [f"agent {agent_path.name}",
             f"replications {cfg.evaluate.replications}",
             f"simulated_days {len(runs.report.rows)}",
             f"offers_total {len(offers)}",
             f"acceptance_rate {accepted / len(offers):.6f}" if offers
             else "acceptance_rate unavailable",
             f"mean_episode_reward {float(np.mean(runs.rewards)):.6f}",
             f"mean_completed_trips {float(np.mean(runs.completed)):.6f}"]
    if actual_series is not None:
        predicted = [row.predicted_mean for row in runs.report.rows]
        lines.append(_correlation_line(
            "daily_count_pearson",
            lambda: pearson(predicted, actual_series)))
        total_actual = float(sum(actual_series))
        if total_actual > 0:
            lines.append(f"total_delta_percent "
                         f"{delta_percent(sum(predicted), total_actual):.3f}")
        log_hour = acceptance_by_hour(actuals["decisions"])
        log_dist = acceptance_by_distance(actuals["decisions"])
        lines.append(_correlation_line(
            "hourly_acceptance_pearson",
            lambda: curve_pearson(runs.hour_curve, log_hour)))
        lines.append(_correlation_line(
            "distance_acceptance_pearson",
            lambda: curve_pearson(runs.dist_curve, log_dist)))
    write_artifact(out / "correlations.txt", lines, __version__, digest,
                   cfg.seed)
    print("\n".join(lines))
    print(f"artifacts in {out}")
    return 0


def cmd_sweep(args) -> int:
    cfg, out, digest = _load(args)
    if not cfg.sweep.param:
        raise PipelineError("sweep.param is not set")
    if not cfg.sweep.values:
        raise PipelineError("sweep.values is empty")
    base_agent = _require(out / "agent_bc.txt", "train-bc")
    leaf = cfg.sweep.param.split(".")[-1]
    summary = []
    for value in cfg.sweep.values:
        data = config_to_dict(cfg)
        node = data
        parts = cfg.sweep.param.split(".")
        try:
            for part in parts[:-1]:
                node = node[part]
            if parts[-1] not in node:
                raise KeyError(parts[-1])
        except (KeyError, TypeError):
            raise ConfigError(f"sweep.param {cfg.sweep.param!r} "
                              "is not a configuration key") from None
        node[parts[-1]] = value
        variant = config_from_dict(data)
        variant_digest = config_hash(variant)
        label = f"{leaf}={value}"
        sub_out = out / "sweep" / label

        agent = CategoricalQAgent.load(base_agent)
        sim_config = _build_sim_config(variant, out)
        agent_path = sub_out / "agent_rl.txt"
        agent_path.parent.mkdir(parents=True, exist_ok=True)
        report = train_rl(agent, sim_config, variant.rl,
                          seed_stream(cfg.seed, f"sweep-{label}-train"),
                          checkpoint_path=agent_path)
        _stamp_agent(agent_path, variant_digest, cfg.seed)
        _write_train_report(sub_out / "rl_report.csv", report,
                            "episode_reward", variant_digest, cfg.seed)

        agent.epsilon = 0.0
        runs = _replicate_and_write(sim_config, agent, variant, cfg.seed,
                                    f"sweep-{label}", sub_out, variant_digest)
        offers = runs.offers
        accepted = sum(1 for o in offers if o.action == Action.ACCEPT)
        rate = accepted / len(offers) if offers else float("nan")
        reward = float(np.mean(runs.rewards))
        summary.append([str(value), str(len(offers)), str(accepted),
                        f"{rate:.6f}", f"{float(np.mean(runs.completed)):.6f}",
                        f"{reward:.6f}"])
        print(f"{cfg.sweep.param}={value}: acceptance {rate:.4f}, "
              f"mean reward {reward:.2f}")
    write_csv_artifact(out / "sweep" / "summary.csv",
                       ["value", "offers", "accepted", "acceptance_rate",
                        "mean_completed_trips", "mean_episode_reward"],
                       summary, __version__, digest, cfg.seed)
    print(f"sweep artifacts in {out / 'sweep'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="YAML configuration file")
    common.add_argument("--set", dest="overrides", action="append",
                        metavar="KEY=VALUE",
                        help="override a configuration key (repeatable)")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (default from configuration)")
    common.add_argument("--seed", type=int, metavar="N",
                        help="override the run seed")

    parser = _Parser(prog="ridesim",
                     description="ride-hailing marketplace simulator")
    parser.add_argument("--version", action="version",
                        version=f"ridesim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("synth", parents=[common],
                       help="write a synthetic trip log")
    p.set_defaults(func=cmd_synth)
    p = sub.add_parser("ingest", parents=[common],
                       help="parse and clean a trip log")
    p.add_argument("--trip-log", metavar="PATH",
                   help="raw log (default paths.trip_log)")
    p.set_defaults(func=cmd_ingest)
    p = sub.add_parser("fit", parents=[common],
                       help="fit demand and location models")
    p.set_defaults(func=cmd_fit)
    p = sub.add_parser("generate", parents=[common],
                       help="sample ride requests from the fitted models")
    p.set_defaults(func=cmd_generate)
    p = sub.add_parser("train-bc", parents=[common],
                       help="imitate logged driver decisions")
    p.set_defaults(func=cmd_train_bc)
    p = sub.add_parser("train-rl", parents=[common],
                       help="refine the agent in the simulator")
    p.set_defaults(func=cmd_train_rl)
    p = sub.add_parser("evaluate", parents=[common],
                       help="replicate simulations and compare to the log")
    p.add_argument("--agent", metavar="PATH",
                   help="agent checkpoint (default: newest trained)")
    p.set_defaults(func=cmd_evaluate)
    p = sub.add_parser("sweep", parents=[common],
                       help="retrain across values of one platform knob")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, PipelineError, ValueError, OSError,
            FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
