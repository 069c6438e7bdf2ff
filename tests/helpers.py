"""Helpers used only by the tests: scalar forms of the learner kernels, the
agent's single-observation views, a forward-only loss, central finite
differences, per-iteration series of a training report, summaries of fitted
models and cleaning reports, file writers for bare networks and fitted
artifacts, the minute-by-minute reference of the episode loop and a
recorder of the rides episodes draw, a ride's candidates read from the
block scorer, a percentile bootstrap of a difference in means, and an
observation built from named features."""

import math

import numpy as np

from ridesim.agent import (N_ACTIONS, CategoricalQAgent, expected_q,
                           project_target_batch)
from ridesim.distributions import (EmpiricalDistribution, TimeProfile,
                                   distribution_lines, time_profile_lines)
from ridesim.distributions import MINUTES_PER_DAY
from ridesim import sim
from ridesim.nn import (Mlp, _softmax, checkpoint_lines, forward,
                        loss_and_grad_batch, parse_checkpoint)
from ridesim.sim import (FEATURES, MINUTES_PER_WEEK, Action, EpisodeLog,
                         Fleet, OfferRecord, Trajectory, chain_transitions,
                         episode_streams, reward_from_observation, ride_stream)


def tabular_q_update(q: float, alpha: float, reward: float, gamma: float,
                     max_next_q: float) -> float:
    """Classic one-step Q-learning update on a stored scalar value."""
    return q + alpha * (reward + gamma * max_next_q - q)


def project_target(probs: np.ndarray, reward: float, gamma: float,
                   atoms: np.ndarray) -> np.ndarray:
    """Single-distribution form of project_target_batch."""
    return project_target_batch(probs[None, :], np.array([reward]),
                                np.array([gamma]), atoms)[0]


def normalize(agent: CategoricalQAgent, obs: np.ndarray) -> np.ndarray:
    return np.asarray(obs, dtype=float) / agent.scales.as_array()


def value_distribution(agent: CategoricalQAgent, obs: np.ndarray,
                       net: Mlp | None = None) -> np.ndarray:
    """Per-action atom probabilities for one raw observation."""
    net = net or agent.online
    logits = forward(net, normalize(agent, obs)).reshape(N_ACTIONS, -1)
    return _softmax(logits)


def q_values(agent: CategoricalQAgent, obs: np.ndarray,
             net: Mlp | None = None) -> np.ndarray:
    return expected_q(value_distribution(agent, obs, net), agent.atoms)


def loss_and_grad(net: Mlp, x: np.ndarray, target: np.ndarray, action: int,
                  n_actions: int):
    """Single-sample form of loss_and_grad_batch."""
    return loss_and_grad_batch(net, x[None, :], target[None, :],
                               np.array([action]), n_actions)


def loss_only(net: Mlp, x: np.ndarray, target: np.ndarray, action: int,
              n_actions: int) -> float:
    """Loss via the pure forward pass, used by the finite-difference check."""
    out = forward(net, x)
    atoms = out.size // n_actions
    z = out.reshape(n_actions, atoms)[action]
    zmax = z.max()
    lse = zmax + np.log(np.exp(z - zmax).sum())
    return float(lse - (target * z).sum())


def finite_difference_grads(net: Mlp, x: np.ndarray, target: np.ndarray,
                            action: int, n_actions: int, eps: float = 1e-6):
    """Central-difference gradients of the single-sample loss, as
    (weight_grads, bias_grads) views into one vector laid out like net.flat.

    Each parameter p is stepped by h = eps * max(1, |p|) both ways. A step
    in layer i moves only that layer's pre-activation: weight (a, o) moves
    unit o by h times input a, bias o moves it by h. So every perturbed
    network of layer i runs as one stacked forward pass from layer i on.
    """
    grad = np.zeros_like(net.flat)
    grad_w, grad_b = net.views(grad)
    last = len(net.weights) - 1
    inputs, pre = [np.asarray(x, dtype=float)], []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        pre.append(inputs[-1] @ w + b)
        inputs.append(np.maximum(pre[-1], 0.0) if i != last else pre[-1])

    def losses(i, z):
        """Loss of each row of layer-i pre-activations z, run to the end."""
        for j in range(i, last):
            z = np.maximum(z, 0.0) @ net.weights[j + 1] + net.biases[j + 1]
        rows = z.reshape(len(z), n_actions, -1)[:, action]
        zmax = rows.max(axis=1)
        lse = zmax + np.log(np.exp(rows - zmax[:, None]).sum(axis=1))
        return lse - rows @ target

    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        for params, out, scale in ((w, grad_w[i], inputs[i][:, None]),
                                   (b, grad_b[i], 1.0)):
            h = eps * np.maximum(1.0, np.abs(params))
            shift = np.broadcast_to(h * scale, params.shape).ravel()
            unit = np.arange(params.size) % params.shape[-1]
            z = np.tile(pre[i], (2 * params.size, 1))
            z[np.arange(params.size), unit] += shift
            z[params.size + np.arange(params.size), unit] -= shift
            both = losses(i, z).reshape(2, -1)
            out[...] = ((both[0] - both[1]) / (2.0 * h.ravel())).reshape(
                params.shape)
    return grad_w, grad_b


def gradient_check(net: Mlp, x: np.ndarray, target: np.ndarray, action: int,
                   n_actions: int, eps: float = 1e-6) -> float:
    """Max normwise relative error between analytic and numeric gradients."""
    _, aw, ab = loss_and_grad(net, x, target, action, n_actions)
    nw, nb = finite_difference_grads(net, x, target, action, n_actions, eps)
    worst = 0.0
    for analytic, numeric in list(zip(aw, nw)) + list(zip(ab, nb)):
        denom = max(np.linalg.norm(analytic) + np.linalg.norm(numeric), 1e-12)
        err = np.linalg.norm(analytic - numeric) / denom
        worst = max(worst, float(err))
    return worst


def loss_series(report) -> list:
    """Mean loss of each iteration of a `TrainReport`."""
    return [row.loss for row in report.iterations]


def metric_series(report) -> list:
    """Improvement metric of each iteration of a `TrainReport`."""
    return [row.metric for row in report.iterations]


def parameter_count(net: Mlp) -> int:
    return net.flat.size


def expected_daily(profile: TimeProfile, dow: int) -> float:
    """Expected generated rides on the given day of week (0 = Monday)."""
    return float(profile.means[dow].sum())


def ks_statistic(dist: EmpiricalDistribution, observed) -> float:
    """Two-sample Kolmogorov-Smirnov distance between dist and observed.

    Maximum absolute gap between the two empirical CDFs, evaluated at every
    sample point of either side.
    """
    obs = np.asarray(observed, dtype=float)
    if obs.size == 0:
        raise ValueError("observed sample is empty")
    if not np.all(np.isfinite(obs)):
        raise ValueError("observed samples must be finite")
    xs = dist.samples  # already sorted
    ys = np.sort(obs)
    grid = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, grid, side="right") / xs.size
    cdf_y = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.max(np.abs(cdf_x - cdf_y)))


def reconciles(report) -> bool:
    """Whether a `CleaningReport`'s counts add up to its retained count."""
    return (report.retained_count == report.input_count
            - report.duplicate_count - report.missing_field_count
            - report.out_of_region_count)


def save_checkpoint(net: Mlp, path) -> None:
    """Text checkpoint: version, dims, then every tensor row in full precision."""
    with open(path, "w") as fh:
        fh.write("\n".join(checkpoint_lines(net)) + "\n")


def load_checkpoint(path) -> Mlp:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    return parse_checkpoint(lines, label=str(path))


def write_distribution(dist: EmpiricalDistribution, path, name: str) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(distribution_lines(dist, name)) + "\n")


def write_time_profile(profile: TimeProfile, path) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(time_profile_lines(profile)) + "\n")


def record_ride_streams(monkeypatch) -> list:
    """Make every later `sim.ride_stream` call, the episodes' included,
    collect the rides it yields into a list of its own; returns the lists,
    one per call, in call order."""
    streams = []

    def recording(config, rng):
        rides = []
        streams.append(rides)
        for minute, batch in ride_stream(config, rng):
            rides.extend(batch)
            yield minute, batch

    monkeypatch.setattr(sim, "ride_stream", recording)
    return streams


def bootstrap_mean_diff(high, low, rng: np.random.Generator,
                        resamples: int = 1000,
                        alpha: float = 0.05) -> tuple[float, float]:
    """Percentile bootstrap interval for mean(high) - mean(low)."""
    hi = np.asarray(high, dtype=float)
    lo = np.asarray(low, dtype=float)
    if hi.size == 0 or lo.size == 0:
        raise ValueError("empty sample")
    diffs = np.empty(resamples)
    for i in range(resamples):
        diffs[i] = (hi[rng.integers(0, hi.size, hi.size)].mean()
                    - lo[rng.integers(0, lo.size, lo.size)].mean())
    lo_q, hi_q = np.percentile(diffs, [100 * alpha / 2, 100 * (1 - alpha / 2)])
    return float(lo_q), float(hi_q)


def candidates(fleet, rides, grid, k) -> list:
    """Per ride, the (driver ids, observation rows) that one
    `sim._BlockScores` of `rides` gives it: its k nearest idle drivers,
    nearest first."""
    scores = sim._BlockScores(fleet, sim._ride_features(rides, grid), k,
                              agent=None)
    return [scores.take(j)[:2] for j in range(len(rides))]


def reference_dispatch(ride, fleet, agent, config, clock, rng):
    """`sim.dispatch` by a full sort of the idle drivers on (distance, id),
    scoring every offer, rejects included, from its observation row."""
    nearest = sorted(
        (math.hypot(x - ride.pickup_x, y - ride.pickup_y), i)
        for i, (x, y, idle) in enumerate(zip(fleet.x.tolist(), fleet.y.tolist(),
                                             fleet.idle.tolist())) if idle)
    nearest = nearest[:config.max_offers]
    records = []
    if not nearest:
        return records, None
    cx, cy = config.grid.center()
    drop_center_km = math.hypot(ride.drop_x - cx, ride.drop_y - cy)
    obs_batch = np.array([observation(
        pickup_km=km, trip_km=ride.distance_km,
        minute_of_day=clock % MINUTES_PER_DAY,
        trips_to_goal=max(0, int(fleet.goal[i] - fleet.trips_week[i])),
        drop_center_km=drop_center_km,
        idle_minutes=max(0, clock - int(fleet.idle_since[i])))
        for km, i in nearest])
    for (_, driver_id), obs, action in zip(nearest, obs_batch,
                                           agent.decide(obs_batch, rng)):
        goal = int(fleet.goal[driver_id])
        reward = reward_from_observation(config.params, obs, goal, action)
        records.append(OfferRecord(minute=clock, driver_id=driver_id, obs=obs,
                                   action=action, reward=reward,
                                   goal_trips=goal, ride=ride))
        if action == Action.ACCEPT:
            fleet.assign(driver_id, ride, clock, config.speed_kmh)
            return records, driver_id
    return records, None


def reference_episode(config, agent, rng) -> EpisodeLog:
    """`sim.run_episode` on a minute clock: every minute rolls the week over
    when one starts and completes due trips, rides or not, and the
    trajectories are built before returning. The rides come from
    `sim.ride_stream` on the episode's demand generator, drawn up front."""
    placement, demand, decisions = episode_streams(rng)
    fleet = Fleet.place(config, placement)
    days = config.weeks * 7
    log = EpisodeLog(weeks=config.weeks, start_dow=config.start_dow,
                     daily_generated=[0] * days, daily_assigned=[0] * days,
                     daily_lost=[0] * days)
    rides_at = dict(ride_stream(config, demand))
    for minute in range(days * MINUTES_PER_DAY):
        # A trip ending on a week's first minute counts toward the new week.
        if minute > 0 and minute % MINUTES_PER_WEEK == 0:
            fleet.start_week(config.params.weekly_target_multiplier)
        log.completed_trips += fleet.complete_trips(minute).size
        rides = rides_at.get(minute)
        if not rides:
            continue
        day = minute // MINUTES_PER_DAY
        log.daily_generated[day] += len(rides)
        for ride in rides:
            records, assigned = reference_dispatch(ride, fleet, agent, config,
                                                   minute, decisions)
            log.offers.extend(records)
            for rec in records:
                log.total_reward += rec.reward
            if assigned is None:
                log.daily_lost[day] += 1
            else:
                log.daily_assigned[day] += 1

    by_driver: dict = {}
    for rec in log.offers:
        by_driver.setdefault(rec.driver_id, []).append(rec)
    log.trajectories = {
        i: Trajectory(i, chain_transitions((o.obs, o.action, o.reward)
                                           for o in by_driver[i]))
        for i in sorted(by_driver)}
    return log


def observation(**features) -> np.ndarray:
    """An observation row from `sim.FEATURES` names; a feature not named
    is 0."""
    unknown = set(features) - set(FEATURES)
    assert not unknown, f"not features: {sorted(unknown)}"
    return np.array([features.get(name, 0.0) for name in FEATURES],
                    dtype=float)
