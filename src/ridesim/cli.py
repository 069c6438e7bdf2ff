"""Command line pipeline from raw trip logs to simulated marketplace runs.

Subcommands, in pipeline order:

  synth      write a synthetic trip log driven by a known decision rule
  ingest     parse and clean a raw trip log
  fit        fit location, distance and demand models from the cleaned log
  generate   sample ride requests from the fitted models
  train-bc   imitate the logged driver decisions
  train-rl   refine the imitation agent inside the simulator
  evaluate   replicate simulations and compare them against the held-out days
  sweep      train-rl, then evaluate of the saved agent, for each value of
             one configuration key, in sweep/<key>=<value>/

Each step reads the previous step's artifacts from the output directory and
fails with the name of the producing subcommand when one is missing. Exit
codes: 0 success, 1 bad usage, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import os
import pickle
import signal
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .agent import CategoricalQAgent, FeatureScales
from .artifacts import (_read_keyed, csv_lines, read_csv_artifact,
                        seed_stream, write_artifact)
from .config import (Config, ConfigError, config_from_dict, config_hash,
                     config_to_dict, load_config, set_key)
from .distributions import (distribution_lines, fit_empirical,
                            fit_time_profile, read_distribution,
                            read_time_profile, time_profile_lines)
from .ingest import (LOG_COLUMNS, clean, driver_weekly_averages,
                     extract_demonstrations, read_trip_log, record_to_row,
                     training_window, window_records)
from .metrics import (ACCEPTANCE_COLUMNS, DAILY_COUNT_COLUMNS,
                      acceptance_by_distance, acceptance_by_hour,
                      acceptance_curves, curve_pearson,
                      curve_rows, daily_counts, delta_percent, pearson)
from .ridegen import RIDE_COLUMNS, ride_to_row
from .sim import SimConfig, ride_stream, run_episode
from .synth import generate_synthetic_log
from .training import build_agent_for_demonstrations, train_bc, train_rl


class PipelineError(RuntimeError):
    pass


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# The subcommand that writes each artifact a later one cannot run without.
_PRODUCERS = {"cleaned_trips.csv": "ingest", "dist_pickup_x.txt": "fit",
              "dist_pickup_y.txt": "fit", "dist_trip_km.txt": "fit",
              "time_profile.txt": "fit", "holdout.txt": "fit",
              "agent_bc.txt": "train-bc"}


class _Run:
    """One command's resolved configuration and its artifact directories.

    Artifacts are read from `inputs`, which is `out` unless a sweep variant
    reads its base run's. Every artifact written carries the provenance
    header of `cfg`: package version, configuration digest and seed.
    """

    def __init__(self, cfg: Config, out: Path, inputs: Path | None = None):
        self.cfg, self.out, self.inputs = cfg, out, inputs or out
        self.digest = config_hash(cfg)

    def write(self, name: str, lines) -> None:
        write_artifact(self.out / name, lines, __version__, self.digest,
                       self.cfg.seed)

    def write_csv(self, name: str, columns, rows) -> None:
        self.write(name, csv_lines(columns, rows))

    def need(self, name: str) -> Path:
        path = self.inputs / name
        if not path.exists():
            raise PipelineError(f"missing {path}; "
                                f"run `ridesim {_PRODUCERS[name]}` first")
        return path


def _load(args) -> _Run:
    overrides = list(args.overrides or [])
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.out is not None:
        overrides.append(f"paths.out_dir={args.out}")
    cfg = load_config(args.config, overrides)
    return _Run(cfg, Path(cfg.paths.out_dir))


def _read_cleaned(path) -> list:
    records, rejects = read_trip_log(path)
    if rejects:
        raise PipelineError(f"{path} row {rejects[0].row_number}: "
                            f"{rejects[0].reason}")
    if not records:
        raise PipelineError(f"{path} contains no trips")
    return records


def _initial_trips(run: _Run):
    if run.cfg.sim.initial_weekly_trips is not None:
        return run.cfg.sim.initial_weekly_trips
    averages = run.inputs / "driver_averages.csv"
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


def _build_sim_config(run: _Run) -> SimConfig:
    px, py, tkm = (read_distribution(run.need(f"dist_{name}.txt"))[1]
                   for name in ("pickup_x", "pickup_y", "trip_km"))
    profile = read_time_profile(run.need("time_profile.txt"))
    settings = vars(run.cfg.sim) | {"initial_weekly_trips":
                                    _initial_trips(run)}
    return SimConfig(grid=run.cfg.grid, params=run.cfg.platform,
                     pickup_x_dist=px, pickup_y_dist=py,
                     trip_distance_dist=tkm, time_profile=profile, **settings)


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
    run = _load(args)
    cfg = run.cfg
    records = generate_synthetic_log(cfg.synth, cfg.grid, cfg.platform,
                                     cfg.sim.speed_kmh, cfg.seed)
    run.write_csv("synthetic_trips.csv", LOG_COLUMNS,
                  map(record_to_row, records))
    accepted = sum(1 for r in records if r.status == "completed")
    print(f"wrote {len(records)} offers ({accepted} completed) to "
          f"{run.out / 'synthetic_trips.csv'}")
    return 0


def cmd_ingest(args) -> int:
    run = _load(args)
    log_path = args.trip_log or run.cfg.paths.trip_log
    if not log_path:
        raise PipelineError("no trip log given: set paths.trip_log "
                            "or pass --trip-log")
    records, rejects = read_trip_log(log_path)
    if not records and not rejects:
        raise PipelineError(f"{log_path} contains no data rows")
    kept, report = clean(records, run.cfg.grid.latlon_bounds())
    run.write_csv("cleaned_trips.csv", LOG_COLUMNS, map(record_to_row, kept))
    run.write_csv("rejects.csv", ["row", "reason"],
                  ([str(r.row_number), r.reason] for r in rejects))
    run.write("cleaning_report.txt",
              [f"parse_rejected {len(rejects)}"] + report.to_lines())
    print(f"parsed {len(records)} trips ({len(rejects)} rejected rows), "
          f"kept {report.retained_count} after cleaning")
    print(f"artifacts in {run.out}")
    return 0


HOLDOUT_MAGIC = "ridesim-holdout v1"
# holdout.txt's lines after its header, in order, when it holds out any day
_HOLDOUT_LINES = ("daily", "hour_offers", "hour_accepted", "distance_offers",
                  "distance_accepted")


def _holdout_lines(cfg: Config, records, window) -> list:
    """fit: holdout.txt, the log side of every `evaluate` comparison: trips
    per held-out day and the acceptance curves of the held-out decisions."""
    start, days = window[0], cfg.demand.holdout_days
    lines = [HOLDOUT_MAGIC, f"holdout_days {days}",
             f"start_dow {start.weekday()}"]
    if days < 1:
        return lines
    holdout = window_records(records, window)  # holds the last trip
    counts = [0] * days
    for rec in holdout:
        counts[(rec.created_time - start).days] += 1
    decisions = [t for traj in extract_demonstrations(
                     holdout, cfg.platform, cfg.grid, window=window,
                     speed_kmh=cfg.sim.speed_kmh)
                 for t in traj.transitions]
    curves = acceptance_by_hour(decisions), acceptance_by_distance(decisions)
    values = [counts] + [n for c in curves for n in (c.offers, c.accepted)]
    return lines + [" ".join([key, *map(str, v)])
                    for key, v in zip(_HOLDOUT_LINES, values)]


def _read_holdout(run: _Run):
    """evaluate: the held-out days' trip counts and acceptance curves that
    `fit` wrote to holdout.txt, or None when it held out no day."""
    def build(header, body):
        days, dow = int(header["holdout_days"]), int(header["start_dow"])
        if days != run.cfg.demand.holdout_days:
            raise ValueError(f"holds out {days} days but demand.holdout_days "
                             f"is {run.cfg.demand.holdout_days}; "
                             "re-run `ridesim fit`")
        if not 0 <= dow < 7:
            raise ValueError(f"start_dow {dow} is not in 0-6")
        keys = list(_HOLDOUT_LINES) if days else []
        rows = [line.split() for line in body]
        if [row[0] for row in rows] != keys:
            raise ValueError(f"expected the lines {keys} after the header")
        if not days:
            return None
        daily, *counts = ([int(v) for v in row[1:]] for row in rows)
        if len(daily) != days or min(daily) < 0:
            raise ValueError(f"daily needs {days} non-negative counts")
        hour, dist = acceptance_by_hour(()), acceptance_by_distance(())
        return SimpleNamespace(
            start_dow=dow, daily=daily,
            hour_curve=replace(hour, offers=counts[0], accepted=counts[1]),
            dist_curve=replace(dist, offers=counts[2], accepted=counts[3]))
    return _read_keyed(run.need("holdout.txt"), HOLDOUT_MAGIC,
                       ("holdout_days", "start_dow"), build)


def cmd_fit(args) -> int:
    run = _load(args)
    cfg = run.cfg
    records = _read_cleaned(run.need("cleaned_trips.csv"))
    train_win, holdout_win = training_window(records, cfg.demand.holdout_days)
    train = window_records(records, train_win)
    if len(train) < 2:
        raise PipelineError("training window holds fewer than 2 trips")
    xs, ys = zip(*(cfg.grid.to_xy(r.pickup_lat, r.pickup_lon) for r in train))
    for name, values in (("pickup_x", xs), ("pickup_y", ys),
                         ("trip_km", [r.trip_distance_km for r in train])):
        run.write(f"dist_{name}.txt",
                  distribution_lines(fit_empirical(values), name))
    profile = fit_time_profile([r.created_time for r in train],
                               cfg.demand.scale_factor)
    run.write("time_profile.txt", time_profile_lines(profile))
    run.write_csv("driver_averages.csv", ["driver_id", "weekly_trips"],
                  ([d, f"{v:.6f}"] for d, v in
                   driver_weekly_averages(train).items()))
    run.write("holdout.txt", _holdout_lines(cfg, records, holdout_win))
    weekly = profile.expected_weekly() * cfg.demand.scale_factor
    print(f"fitted {len(train)} trips from {train_win[0]:%Y-%m-%d} "
          f"to {train_win[1]:%Y-%m-%d}")
    print(f"estimated demand {weekly:.0f} requests/week "
          f"(simulated at 1/{cfg.demand.scale_factor:g} scale)")
    return 0


def cmd_generate(args) -> int:
    run = _load(args)
    stream = ride_stream(_build_sim_config(run),
                         seed_stream(run.cfg.seed, "generate"))
    rides = [ride for _, batch in stream for ride in batch]
    run.write_csv("rides.csv", RIDE_COLUMNS, map(ride_to_row, rides))
    print(f"generated {len(rides)} ride requests over "
          f"{run.cfg.sim.weeks} week(s) to {run.out / 'rides.csv'}")
    return 0


def _train(run: _Run, phase: str, train, *args):
    """`train(*args, save=...)`, its best agent kept in agent_<phase>.txt
    as training goes and its iterations written to <phase>_report.csv."""
    report = train(*args, save=lambda agent: run.write(f"agent_{phase}.txt",
                                                       agent.to_lines()))
    run.write_csv(f"{phase}_report.csv",
                  ["iteration", "loss", report.metric_name],
                  ([str(s.iteration), f"{s.loss:.6f}", f"{s.metric:.6f}"]
                   for s in report.iterations))
    return report


def _demonstrations(run: _Run) -> list:
    """train-bc: the training window's trajectories of cleaned_trips.csv.
    The parsed log is freed when this returns, before training starts."""
    cfg = run.cfg
    records = _read_cleaned(run.need("cleaned_trips.csv"))
    train_win, _ = training_window(records, cfg.demand.holdout_days)
    return extract_demonstrations(records, cfg.platform, cfg.grid,
                                  window=train_win,
                                  speed_kmh=cfg.sim.speed_kmh)


def cmd_train_bc(args) -> int:
    run = _load(args)
    cfg = run.cfg
    trajectories = _demonstrations(run)
    agent = build_agent_for_demonstrations(trajectories,
                                           FeatureScales.for_grid(cfg.grid),
                                           seed_stream(cfg.seed, "bc-init"),
                                           **vars(cfg.agent))
    report = _train(run, "bc", train_bc, agent, trajectories, cfg.bc,
                    seed_stream(cfg.seed, "bc-train"))
    print(f"imitation training on {len(trajectories)} drivers, "
          f"{sum(len(t.transitions) for t in trajectories)} decisions")
    print(f"best holdout agreement {report.best_metric:.4f} "
          f"at iteration {report.best_iteration} ({report.stop_reason}, "
          f"{report.wall_clock_s:.1f}s)")
    return 0


def _refine(run: _Run, stream: str):
    """train-rl: agent_bc.txt refined into agent_rl.txt; (report, sim)."""
    agent = CategoricalQAgent.load(run.need("agent_bc.txt"))
    sim_config = _build_sim_config(run)
    report = _train(run, "rl", train_rl, agent, sim_config, run.cfg.rl,
                    seed_stream(run.cfg.seed, stream))
    return report, sim_config


def cmd_train_rl(args) -> int:
    report, _ = _refine(_load(args), "rl-train")
    print(f"refined over {len(report.iterations)} episodes, best reward "
          f"{report.best_metric:.2f} at iteration {report.best_iteration} "
          f"({report.stop_reason}, {report.wall_clock_s:.1f}s)")
    return 0


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set on Linux, else 1."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def _in_workers(task, count: int) -> list:
    """`[task(i) for i in range(count)]` on min(count, usable CPUs)
    processes: worker k runs every i ≡ k (mod workers). This process is
    worker 0 and forks the others; each pipes back its results, or its
    exception to raise here, pickled. No child outlives the call."""
    workers = min(count, usable_cpus())
    children = []   # (pid, read end of its pipe)
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            if (pid := os.fork()) == 0:
                _work_share(task, range(k, count, workers), write_fd)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        shares = [[task(i) for i in range(0, count, workers)]]
        for pid, pipe in children:
            try:
                error, results = pickle.loads(pipe.read())
            except (EOFError, pickle.UnpicklingError):
                raise PipelineError(f"replication worker {pid} exited "
                                    "without its results") from None
            if error is not None:
                raise error
            shares.append(results)
    finally:   # a child that is still running after an error is not needed
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [shares[i % workers][i // workers] for i in range(count)]


def _work_share(task, indices, write_fd) -> None:
    """A forked worker: its results, or the exception that stopped them,
    pickled to `write_fd`; then an exit that skips the parent's handlers."""
    try:
        try:
            message = pickle.dumps((None, [task(i) for i in indices]))
        except Exception as exc:   # raised by the parent
            message = pickle.dumps((exc, None))
        with open(write_fd, "wb") as pipe:
            pipe.write(message)
    finally:
        os._exit(0)


def _replicate(run: _Run, agent_path: Path, sim_config: SimConfig,
               stream: str, actual_daily=None) -> SimpleNamespace:
    """evaluate: replicate episodes of the greedy policy saved at
    `agent_path`, write daily counts and both acceptance curves, and
    summarise the runs.

    With `actual_daily`, every run is cut to that many days and the report
    compares against it.
    """
    agent = CategoricalQAgent.load(agent_path)
    agent.epsilon = 0.0  # evaluate the learned policy, not exploration

    def replicate(i):   # reduced where it ran to what the merge reads
        episode = run_episode(sim_config, agent,
                              seed_stream(run.cfg.seed, f"{stream}-rep-{i}"))
        curves = [np.array([c.offers, c.accepted])
                  for c in acceptance_curves(episode.offers)]
        return (episode.daily_generated, curves, episode.total_reward,
                episode.completed_trips)

    daily, curves, rewards, completed = zip(*_in_workers(
        replicate, run.cfg.evaluate.replications))
    if actual_daily is not None:
        daily = [d[:len(actual_daily)] for d in daily]
    report = daily_counts(daily, actual_daily,
                          start_dow=sim_config.start_dow,
                          scale=sim_config.time_profile.scale_factor)
    hour_curve, dist_curve = (  # each bin's counts summed over the runs
        replace(empty, offers=total[0], accepted=total[1]) for empty, total
        in zip(acceptance_curves(()),
               (sum(counts).tolist() for counts in zip(*curves))))
    run.write_csv("daily_counts.csv", DAILY_COUNT_COLUMNS, report.to_rows())
    run.write_csv("acceptance_by_hour.csv", ACCEPTANCE_COLUMNS,
                  curve_rows(hour_curve))
    run.write_csv("acceptance_by_distance.csv", ACCEPTANCE_COLUMNS,
                  curve_rows(dist_curve))
    offers, accepted = sum(hour_curve.offers), sum(hour_curve.accepted)
    return SimpleNamespace(
        report=report, hour_curve=hour_curve, dist_curve=dist_curve,
        offers=offers, accepted=accepted,
        rate=accepted / offers if offers else math.nan,
        reward=float(np.mean(rewards)), completed=float(np.mean(completed)))


def _correlation_line(name: str, fn, *args) -> str:
    try:
        return f"{name} {fn(*args):.6f}"
    except ValueError:
        return f"{name} unavailable"


def cmd_evaluate(args) -> int:
    run = _load(args)
    agent_path = _find_agent(run.out, args.agent)
    sim_config = _build_sim_config(run)
    log = _read_holdout(run)
    if log is not None:
        sim_config = replace(sim_config, weeks=-(-len(log.daily) // 7),
                             start_dow=log.start_dow)
    runs = _replicate(run, agent_path, sim_config, "evaluate",
                      None if log is None else log.daily)

    lines = [f"agent {agent_path.name}",
             f"replications {run.cfg.evaluate.replications}",
             f"simulated_days {len(runs.report.rows)}",
             f"offers_total {runs.offers}",
             f"acceptance_rate {runs.rate:.6f}" if runs.offers
             else "acceptance_rate unavailable",
             f"mean_episode_reward {runs.reward:.6f}",
             f"mean_completed_trips {runs.completed:.6f}"]
    if log is not None:
        predicted = [row.predicted_mean for row in runs.report.rows]
        lines.append(_correlation_line("daily_count_pearson", pearson,
                                       predicted, log.daily))
        total_actual = float(sum(log.daily))
        if total_actual > 0:
            lines.append(f"total_delta_percent "
                         f"{delta_percent(sum(predicted), total_actual):.3f}")
        lines.append(_correlation_line("hourly_acceptance_pearson",
                                       curve_pearson, runs.hour_curve,
                                       log.hour_curve))
        lines.append(_correlation_line("distance_acceptance_pearson",
                                       curve_pearson, runs.dist_curve,
                                       log.dist_curve))
    run.write("correlations.txt", lines)
    print("\n".join(lines))
    print(f"artifacts in {run.out}")
    return 0


def _variant(cfg: Config, value) -> Config:
    """`cfg` with its `sweep.param` key set to `value`."""
    data = config_to_dict(cfg)
    try:
        set_key(data, cfg.sweep.param, value)
        return config_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"sweep {cfg.sweep.param}={value!r}: {exc}") from None


def cmd_sweep(args) -> int:
    run = _load(args)
    param, values = run.cfg.sweep.param, run.cfg.sweep.values
    if not param:
        raise PipelineError("sweep.param is not set")
    if param.split(".")[0] in ("synth", "demand", "grid", "bc"):
        raise PipelineError(f"sweep cannot vary {param}: only synth, ingest, "
                            "fit and train-bc read it, and every variant "
                            "reuses their outputs from the base run")
    if not values:
        raise PipelineError("sweep.values is empty")
    summary = []
    for value in values:
        label = f"{param.split('.')[-1]}={value}"
        variant = _Run(_variant(run.cfg, value), run.out / "sweep" / label,
                       inputs=run.out)
        # values share their training rides and replication i's demand
        _, sim_config = _refine(variant, "sweep-train")
        runs = _replicate(variant, variant.out / "agent_rl.txt", sim_config,
                          "sweep")
        summary.append([str(value), str(runs.offers), str(runs.accepted),
                        f"{runs.rate:.6f}", f"{runs.completed:.6f}",
                        f"{runs.reward:.6f}"])
        print(f"{param}={value}: acceptance {runs.rate:.4f}, "
              f"mean reward {runs.reward:.2f}")
    run.write_csv("sweep/summary.csv",
                  ["value", "offers", "accepted", "acceptance_rate",
                   "mean_completed_trips", "mean_episode_reward"], summary)
    print(f"sweep artifacts in {run.out / 'sweep'}")
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

    for name, func, text in (
            ("synth", cmd_synth, "write a synthetic trip log"),
            ("ingest", cmd_ingest, "parse and clean a trip log"),
            ("fit", cmd_fit, "fit demand and location models"),
            ("generate", cmd_generate,
             "sample ride requests from the fitted models"),
            ("train-bc", cmd_train_bc, "imitate logged driver decisions"),
            ("train-rl", cmd_train_rl, "refine the agent in the simulator"),
            ("evaluate", cmd_evaluate,
             "replicate simulations and compare to the log"),
            ("sweep", cmd_sweep, "retrain and evaluate across one config key")):
        sub.add_parser(name, parents=[common],
                       help=text).set_defaults(func=func)
    sub.choices["ingest"].add_argument(
        "--trip-log", metavar="PATH", help="raw log (default paths.trip_log)")
    sub.choices["evaluate"].add_argument(
        "--agent", metavar="PATH",
        help="agent checkpoint (default: newest trained)")
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
    except (PipelineError, ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
