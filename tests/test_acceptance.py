"""End-to-end acceptance checks for the simulator and its learning stack.

Each test prints one PASS/FAIL line on the real terminal so a full run
yields a nine-line scorecard. The slow imitation and incentive-response
checks share two synthetic worlds and one cloned agent through module
fixtures; everything else builds its own small inputs.
"""

import math
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

from ridesim import cli
from helpers import (bootstrap_mean_diff, candidates, expected_daily,
                     gradient_check, ks_statistic, observation,
                     project_target, tabular_q_update)
from ridesim.agent import (CategoricalQAgent, FeatureScales, TransitionBatch,
                           expected_q)
from ridesim.artifacts import comparable_lines, seed_stream
from ridesim.distributions import (fit_empirical,
                                   fit_time_profile, inverse_sample,
                                   probabilistic_round)
from ridesim.ingest import extract_demonstrations, training_window
from ridesim.metrics import (acceptance_by_distance, curve_pearson,
                             delta_percent)
from ridesim.nn import Mlp, loss_and_grad_batch
from ridesim.ridegen import GridSpec, generate_rides
from ridesim.sim import (Action, Fleet, PlatformParams, Ride, SimConfig,
                         Transition, reward_from_observation, run_episode)
from ridesim.synth import SyntheticLogSpec, generate_synthetic_log
from ridesim.training import BcConfig, RlConfig, reward_support, train_bc, train_rl


@contextmanager
def verdict(capsys, label):
    """Print one scorecard line for the enclosed criterion body."""
    try:
        yield
    except BaseException as exc:
        detail = str(exc).splitlines()[0][:160] if str(exc) else type(exc).__name__
        with capsys.disabled():
            print(f"FAIL {label}: {detail}", flush=True)
        raise
    with capsys.disabled():
        print(f"PASS {label}", flush=True)


# ---------------------------------------------------------------------------
# Reward formula


def test_reward_formula_hand_values(capsys):
    with verdict(capsys, "reward formula"):
        params = PlatformParams()

        # Off-peak accept: 100*5 - 30*(5+1) - 10*1 + 2000/40 = 360.
        base = dict(pickup_km=1.0, trip_km=5.0, minute_of_day=12 * 60,
                    trips_to_goal=3, idle_minutes=10.0)
        assert reward_from_observation(params, observation(**base), 40,
                                       Action.ACCEPT) \
            == pytest.approx(360.0, abs=1e-9)
        assert reward_from_observation(params, observation(**base), 40,
                                       Action.REJECT) == 0.0

        # Same offer in a peak minute doubles the fare term only: 860.
        peak = dict(base, minute_of_day=6 * 60 + 40)
        assert reward_from_observation(params, observation(**peak), 40,
                                       Action.ACCEPT) \
            == pytest.approx(860.0, abs=1e-9)

        # Goal already met: the bonus term drops out, 310.
        met = dict(base, trips_to_goal=0)
        assert reward_from_observation(params, observation(**met), 40,
                                       Action.ACCEPT) \
            == pytest.approx(310.0, abs=1e-9)

        # Halving the fare removes half the fare term.
        half = replace(params, fare_per_km=params.fare_per_km / 2)
        assert reward_from_observation(half, observation(**base), 40,
                                       Action.ACCEPT) \
            == pytest.approx(110.0, abs=1e-9)

        # The full driver/ride path reproduces the same 360 state.
        fleet = Fleet([2.0], [2.0], goal=[40])
        fleet.trips_week[0] = 37
        fleet.idle_since[0] = 710
        ride = Ride(pickup_x=2.0, pickup_y=3.0, drop_x=2.0, drop_y=8.0,
                    distance_km=5.0, created_minute=720)
        [(_, obs)] = candidates(fleet, [ride], GridSpec(width_km=10.0,
                                                        height_km=10.0), 1)
        obs = obs[0]
        assert reward_from_observation(params, obs, int(fleet.goal[0]),
                                       Action.ACCEPT) \
            == pytest.approx(360.0, abs=1e-9)

        # The multiplier is live exactly in hours 6-8 and 16-19, half-open.
        peak_hours = {6, 7, 16, 17, 18}
        for hour in range(24):
            for minute in (hour * 60, hour * 60 + 59):
                expected = 200.0 if hour in peak_hours else 100.0
                assert params.effective_fare(minute) == expected, minute


# ---------------------------------------------------------------------------
# Learning kernels


def test_learning_kernels_match_closed_forms(capsys):
    with verdict(capsys, "learning kernels"):
        # Hand-evaluated one-step updates, exact float equality.
        assert tabular_q_update(0.0, 0.5, 1.0, 0.9, 2.0) == 1.4
        assert tabular_q_update(3.0, 0.0, 1.0, 0.9, 2.0) == 3.0
        assert tabular_q_update(0.0, 1.0, 2.5, 0.0, 99.0) == 2.5
        # Repeated self-consistent updates approach r / (1 - gamma).
        q = 0.0
        for _ in range(500):
            q = tabular_q_update(q, 0.5, 1.0, 0.9, q)
        assert q == pytest.approx(10.0, abs=1e-6)

        # With terminal transitions the projected target is a point mass at
        # the reward, so a train step must equal one plain cross-entropy
        # step toward that distribution on the taken action.
        scales = FeatureScales()
        make = lambda: CategoricalQAgent.create(
            scales, v_min=-5.0, v_max=5.0, rng=np.random.default_rng(8),
            hidden=(8, 8), atom_count=11)
        agent, twin = make(), make()
        rng = np.random.default_rng(9)
        batch = []
        for _ in range(16):
            obs = np.abs(rng.normal(size=6))
            batch.append(Transition(obs=obs, action=Action(int(rng.integers(2))),
                                    next_obs=obs, reward=float(rng.uniform(-4, 4)),
                                    terminal=True))
        loss = agent.train_step(TransitionBatch.of(batch))
        xs = np.stack([t.obs for t in batch]) / scales.as_array()
        targets = np.stack([
            project_target(np.full(11, 1.0 / 11), t.reward, 0.0, twin.atoms)
            for t in batch])
        actions = np.array([int(t.action) for t in batch])
        expected_loss, _, _ = loss_and_grad_batch(twin.online, xs, targets,
                                                  actions, 2)
        assert loss == pytest.approx(expected_loss, abs=1e-8)


# ---------------------------------------------------------------------------
# Ride generation


def test_ride_generation_invariants(capsys):
    with verdict(capsys, "ride generation"):
        grid = GridSpec(width_km=10.0, height_km=10.0)
        rng = seed_stream(33, "acceptance-rides")
        px = fit_empirical(rng.uniform(0.0, 10.0, 2000))
        py = fit_empirical(rng.uniform(0.0, 10.0, 2000))
        trips = fit_empirical(np.clip(rng.lognormal(1.25, 0.45, 2000), 0.3, 25.0))
        rides = generate_rides(grid, px, py, trips, counts=10_000,
                               first_minute=0, rng=rng)
        assert len(rides) == 10_000
        for ride in rides:
            assert 0.0 < ride.drop_x < grid.width_km
            assert 0.0 < ride.drop_y < grid.height_km
            chord = math.hypot(ride.pickup_x - ride.drop_x,
                               ride.pickup_y - ride.drop_y)
            assert chord == pytest.approx(ride.distance_km, abs=1e-9)

        # Degenerate inputs force halving: pickup pinned at (0.5, 0.5) with
        # no jitter and a requested 40 km trip on a 10x10 grid. The longest
        # chord that fits is sqrt(9.5^2 + 9.5^2) ~ 13.44, so the stored
        # distance must be 40 halved at least twice.
        pinned = GridSpec(width_km=10.0, height_km=10.0, noise_epsilon_km=0.0)
        point = fit_empirical([0.5, 0.5])
        forty = fit_empirical([40.0, 40.0])
        forced = generate_rides(pinned, point, point, forty, counts=200,
                                first_minute=0, rng=rng)
        bound = math.hypot(9.5, 9.5)
        for ride in forced:
            assert ride.pickup_x == 0.5 and ride.pickup_y == 0.5
            assert ride.distance_km <= bound
            halvings = math.log2(40.0 / ride.distance_km)
            assert halvings == pytest.approx(round(halvings), abs=1e-12)
            assert round(halvings) >= 2
            assert 0.0 < ride.drop_x < 10.0 and 0.0 < ride.drop_y < 10.0


# ---------------------------------------------------------------------------
# Sampling fidelity


def test_sampling_reproduces_fitted_distribution(capsys):
    with verdict(capsys, "sampling fidelity"):
        rng = seed_stream(44, "acceptance-sampling")
        source = rng.lognormal(1.25, 0.45, 2000)
        dist = fit_empirical(source)
        draws = inverse_sample(dist, rng.random(10_000))
        assert ks_statistic(dist, draws) < 0.05
        # Cross-check with an independent KS implementation.
        assert scipy.stats.ks_2samp(source, draws).statistic < 0.05

        counts = probabilistic_round(np.full(100_000, 2.3), rng)
        assert set(counts.tolist()) <= {2, 3}
        assert np.mean(counts) == pytest.approx(2.3, abs=0.01)


# ---------------------------------------------------------------------------
# Demand reproduction


def test_simulated_demand_matches_fitted_profile(capsys):
    with verdict(capsys, "demand reproduction"):
        grid = GridSpec(width_km=10.0, height_km=10.0)
        params = PlatformParams(peak_fare_multiplier=1.0)
        spec = SyntheticLogSpec(driver_count=50, days=21)
        records = generate_synthetic_log(spec, grid, params, 30.0, seed=7)
        profile = fit_time_profile([r.created_time for r in records],
                                   scale_factor=2.0)

        xs = [grid.to_xy(r.pickup_lat, r.pickup_lon)[0] for r in records]
        ys = [grid.to_xy(r.pickup_lat, r.pickup_lon)[1] for r in records]
        config = SimConfig(grid=grid, params=params,
                           pickup_x_dist=fit_empirical(xs),
                           pickup_y_dist=fit_empirical(ys),
                           trip_distance_dist=fit_empirical(
                               [r.trip_distance_km for r in records]),
                           time_profile=profile, driver_count=5, weeks=1,
                           start_dow=records[0].created_time.weekday())

        class RejectAll:
            def decide(self, obs_batch, rng):
                return iter([Action.REJECT] * len(obs_batch))

        replications = []
        for i in range(20):
            episode = run_episode(config, RejectAll(),
                                  seed_stream(900 + i, "acceptance-demand"))
            replications.append(episode.daily_generated)
        mean_daily = np.array(replications, dtype=float).mean(axis=0)

        for day in range(7):
            dow = (config.start_dow + day) % 7
            expected = expected_daily(profile, dow)
            delta = delta_percent(float(mean_daily[day]), expected)
            assert abs(delta) < 10.0, f"day {day}: {delta:+.2f}% off expectation"


# ---------------------------------------------------------------------------
# Value distribution projection


def project_reference(probs, reward, gamma, atoms):
    """Scalar-loop mass splitting oracle for the vectorized projection."""
    k = len(atoms)
    v_min, v_max = atoms[0], atoms[-1]
    dz = (v_max - v_min) / (k - 1)
    out = np.zeros(k)
    for p, z in zip(probs, atoms):
        point = min(max(reward + gamma * z, v_min), v_max)
        pos = (point - v_min) / dz
        lo = int(np.floor(pos))
        hi = min(lo + 1, k - 1)
        frac = pos - lo
        out[lo] += p * (1.0 - frac)
        out[hi] += p * frac
    return out


def test_projection_matches_oracle_and_gradients_check_out(capsys):
    with verdict(capsys, "value projection"):
        rng = seed_stream(66, "acceptance-projection")
        for case in range(1000):
            k = int(rng.integers(2, 61))
            half_span = float(rng.uniform(0.5, 50.0))
            center = float(rng.uniform(-20.0, 20.0))
            atoms = np.linspace(center - half_span, center + half_span, k)
            probs = rng.dirichlet(np.ones(k))
            reward = float(rng.uniform(-2.5 * half_span, 2.5 * half_span))
            gamma = 0.0 if case % 5 == 0 else float(rng.uniform(0.0, 1.0))
            got = project_target(probs, reward, gamma, atoms)
            assert abs(got.sum() - 1.0) <= 1e-6, case
            want = project_reference(probs, reward, gamma, atoms)
            assert np.max(np.abs(got - want)) <= 1e-9, case

        # Expected value of an explicit two-point distribution.
        q = expected_q(np.array([0.25, 0.0, 0.75]), np.array([-1.0, 0.0, 1.0]))
        assert q == pytest.approx(0.5)

        # Analytic gradients agree with central differences on the full
        # agent-shaped network across independent initializations.
        for seed in range(20):
            g = np.random.default_rng(seed)
            net = Mlp.create([6, 32, 32, 102], g)
            x = g.normal(size=6)
            target = g.dirichlet(np.ones(51))
            action = int(g.integers(2))
            assert gradient_check(net, x, target, action, 2) < 1e-4, seed


# ---------------------------------------------------------------------------
# Synthetic worlds for the imitation and incentive checks


def margin_policy(params, scales, beta=0.05):
    """Logistic oracle whose logit is proportional to the net earnings of
    accepting, so reward-scored cloning can recover its decisions. Returns
    the policy fields of a `SyntheticLogSpec`."""
    margin = params.fare_per_km - params.cost_per_km
    return dict(
        weight_pickup_km=-beta * params.cost_per_km * scales.pickup_km,
        weight_trip_km=beta * margin * scales.trip_km,
        weight_minute_of_day=0.0, weight_trips_to_goal=0.0,
        weight_drop_center_km=0.0, weight_idle_minutes=0.0, bias=0.0)


@pytest.fixture(scope="module")
def oracle_world():
    """Flat-fare, no-bonus world whose logged decisions the agent clones."""
    grid = GridSpec(width_km=10.0, height_km=10.0)
    scales = FeatureScales.for_grid(grid)
    params = PlatformParams(peak_fare_multiplier=1.0, idle_cost_per_minute=0.0,
                            weekly_reward_amount=0.0)
    policy = margin_policy(params, scales)
    spec = SyntheticLogSpec(driver_count=50, days=21, **policy)
    records = generate_synthetic_log(spec, grid, params, 30.0, seed=42)
    train_win, hold_win = training_window(records, holdout_days=7)
    return SimpleNamespace(grid=grid, params=params, policy=policy,
                           scales=scales, records=records,
                           train_win=train_win, hold_win=hold_win)


@pytest.fixture(scope="module")
def incentive_world():
    """World for the incentive arms: pricier service kilometres and trips
    capped short, so the accept boundary moves through every populated
    distance bin instead of saturating the long ones. Only its demand
    pattern and geometry are used; no agent is cloned from this log."""
    grid = GridSpec(width_km=10.0, height_km=10.0)
    scales = FeatureScales.for_grid(grid)
    params = PlatformParams(peak_fare_multiplier=1.0, cost_per_km=60.0,
                            idle_cost_per_minute=0.0, weekly_reward_amount=0.0)
    spec = SyntheticLogSpec(driver_count=50, days=21, trip_km_max=4.9,
                            **margin_policy(params, scales))
    records = generate_synthetic_log(spec, grid, params, 30.0, seed=42)
    return SimpleNamespace(grid=grid, params=params, records=records)


@pytest.fixture(scope="module")
def demonstrations(oracle_world):
    w = oracle_world
    return extract_demonstrations(w.records, w.params, w.grid,
                                  window=w.train_win)


@pytest.fixture(scope="module")
def cloned_agent(oracle_world, demonstrations, tmp_path_factory):
    w = oracle_world
    v_min, v_max = reward_support(demonstrations)
    rng = seed_stream(202, "acceptance-bc")
    agent = CategoricalQAgent.create(w.scales, v_min, v_max, rng,
                                     hidden=(32, 32), atom_count=51,
                                     learning_rate=3e-3)
    report = train_bc(agent, demonstrations, BcConfig(iterations=150), rng)
    path = tmp_path_factory.mktemp("bc") / "agent_bc.txt"
    agent.save(path)
    return SimpleNamespace(agent=agent, report=report, path=path)


# ---------------------------------------------------------------------------
# Imitation recovery


def test_imitation_recovers_oracle_policy(capsys, oracle_world, cloned_agent):
    with verdict(capsys, "imitation recovery"):
        w = oracle_world
        assert cloned_agent.report.best_metric >= 0.85, \
            f"holdout agreement {cloned_agent.report.best_metric:.3f}"

        # Score the final, fully unseen week as well, not just the
        # training-time holdout split.
        holdout = extract_demonstrations(w.records, w.params, w.grid,
                                         window=w.hold_win)
        obs_rows, logged_actions = [], []
        for traj in holdout:
            for t in traj.transitions:
                obs_rows.append(t.obs)
                logged_actions.append(int(t.action))
        predicted = cloned_agent.agent.greedy_actions(np.array(obs_rows))
        agreement = float(np.mean(predicted == np.array(logged_actions)))
        assert agreement >= 0.85, f"final-week agreement {agreement:.3f}"

        logged = [SimpleNamespace(obs=o, action=Action(a))
                  for o, a in zip(obs_rows, logged_actions)]
        mimicked = [SimpleNamespace(obs=o, action=Action(int(a)))
                    for o, a in zip(obs_rows, predicted)]
        r = curve_pearson(acceptance_by_distance(mimicked),
                          acceptance_by_distance(logged))
        assert r >= 0.8, f"distance-curve correlation {r:.3f}"


# ---------------------------------------------------------------------------
# Directional incentive responses


def build_sim_config(world, records, params, **kwargs):
    grid = world.grid
    xs = [grid.to_xy(r.pickup_lat, r.pickup_lon)[0] for r in records]
    ys = [grid.to_xy(r.pickup_lat, r.pickup_lon)[1] for r in records]
    profile = fit_time_profile([r.created_time for r in records],
                               scale_factor=2.0)
    defaults = dict(driver_count=50, weeks=1,
                    start_dow=records[0].created_time.weekday())
    defaults.update(kwargs)
    return SimConfig(grid=grid, params=params,
                     pickup_x_dist=fit_empirical(xs),
                     pickup_y_dist=fit_empirical(ys),
                     trip_distance_dist=fit_empirical(
                         [r.trip_distance_km for r in records]),
                     time_profile=profile, **defaults)


def retrain_and_evaluate(world, records, bc_path, params, arm_name,
                         replications=4, **sim_kwargs):
    """Refine the cloned agent under one incentive setting and collect
    its offers over a seed-matched batch of evaluation episodes."""
    agent = CategoricalQAgent.load(bc_path)
    sim_config = build_sim_config(world, records, params, **sim_kwargs)
    train_rl(agent, sim_config, RlConfig(iterations=10, patience=10),
             seed_stream(500, f"acceptance-rl-{arm_name}"))
    agent.epsilon = 0.0
    offers = []
    for i in range(replications):
        episode = run_episode(sim_config, agent,
                              seed_stream(700 + i, "acceptance-eval"))
        offers.extend(episode.offers)
    return offers


def accept_flags(offers):
    return np.array([1.0 if o.action == Action.ACCEPT else 0.0
                     for o in offers])


def peak_offers(offers, params):
    return [o for o in offers if params.is_peak(o.minute % 1440)]


def test_incentive_responses_are_directional(capsys, incentive_world,
                                             cloned_agent):
    with verdict(capsys, "incentive response"):
        w = incentive_world
        records = w.records
        bc_path = cloned_agent.path
        boot_rng = seed_stream(808, "acceptance-bootstrap")

        # Stronger peak pricing: retrain under 2x and 3x multipliers and
        # compare acceptance inside peak hours.
        peak2 = replace(w.params, peak_fare_multiplier=2.0)
        peak3 = replace(w.params, peak_fare_multiplier=3.0)
        offers2 = retrain_and_evaluate(w, records, bc_path, peak2, "peak2")
        offers3 = retrain_and_evaluate(w, records, bc_path, peak3, "peak3")
        rate2 = accept_flags(peak_offers(offers2, peak2)).mean()
        rate3 = accept_flags(peak_offers(offers3, peak3)).mean()
        assert rate3 > rate2, f"peak acceptance {rate3:.3f} vs {rate2:.3f}"
        lo, _ = bootstrap_mean_diff(accept_flags(peak_offers(offers3, peak3)),
                                    accept_flags(peak_offers(offers2, peak2)),
                                    boot_rng)
        assert lo > 0.0, f"peak-hour CI lower bound {lo:.4f}"

        # Higher base fare: acceptance should rise across distance bins.
        fare13 = replace(w.params, fare_per_km=130.0)
        offers_f1 = retrain_and_evaluate(w, records, bc_path, w.params,
                                         "fare1")
        offers_f13 = retrain_and_evaluate(w, records, bc_path, fare13,
                                          "fare13")
        curve_low = acceptance_by_distance(offers_f1)
        curve_high = acceptance_by_distance(offers_f13)
        rates_low, rates_high = curve_low.rates(), curve_high.rates()
        up = total = 0
        for rl_, rh in zip(rates_low, rates_high):
            if rl_ is None or rh is None:
                continue
            total += 1
            up += rh > rl_
        assert total >= 5, "too few populated distance bins"
        assert up / total >= 0.8, f"fare raised only {up}/{total} bins"
        lo, _ = bootstrap_mean_diff(accept_flags(offers_f13),
                                    accept_flags(offers_f1), boot_rng)
        assert lo > 0.0, f"fare CI lower bound {lo:.4f}"

        # Raised weekly target: with a large bonus and goals of 20 vs 26
        # trips against roughly 27 weekly completions, the 1.3x target
        # keeps the bonus unmet for longer and lifts overall acceptance.
        bonus = replace(w.params, weekly_reward_amount=12_000.0)
        target1 = replace(bonus, weekly_target_multiplier=1.0)
        target13 = replace(bonus, weekly_target_multiplier=1.3)
        offers_t1 = retrain_and_evaluate(w, records, bc_path, target1,
                                         "target1", initial_weekly_trips=20)
        offers_t13 = retrain_and_evaluate(w, records, bc_path, target13,
                                          "target13", initial_weekly_trips=20)
        rate_t1 = accept_flags(offers_t1).mean()
        rate_t13 = accept_flags(offers_t13).mean()
        assert rate_t13 > rate_t1, \
            f"target acceptance {rate_t13:.3f} vs {rate_t1:.3f}"
        lo, _ = bootstrap_mean_diff(accept_flags(offers_t13),
                                    accept_flags(offers_t1), boot_rng)
        assert lo > 0.0, f"target CI lower bound {lo:.4f}"


# ---------------------------------------------------------------------------
# Command line determinism


PIPELINE_CONFIG = """\
seed: 11
paths:
  out_dir: "{out}"
  trip_log: "{out}/synthetic_trips.csv"
demand:
  scale_factor: 2.0
  holdout_days: 7
sim:
  driver_count: 6
  weeks: 1
agent:
  hidden: [16, 16]
  atom_count: 11
bc:
  iterations: 2
  batch_size: 32
rl:
  iterations: 2
  patience: 3
evaluate:
  replications: 2
synth:
  driver_count: 8
  days: 15
  offers_per_driver_day: 5.0
sweep:
  param: platform.peak_fare_multiplier
  values: [2.0, 3.0]
"""

COMMAND_ARTIFACTS = [
    (["synth"], ["synthetic_trips.csv"]),
    (["ingest"], ["cleaned_trips.csv", "rejects.csv", "cleaning_report.txt"]),
    (["fit"], ["dist_pickup_x.txt", "dist_pickup_y.txt", "dist_trip_km.txt",
               "time_profile.txt", "driver_averages.csv"]),
    (["generate"], ["rides.csv"]),
    (["train-bc"], ["agent_bc.txt", "bc_report.csv"]),
    (["train-rl"], ["agent_rl.txt", "rl_report.csv"]),
    (["evaluate"], ["daily_counts.csv", "acceptance_by_hour.csv",
                    "acceptance_by_distance.csv", "correlations.txt"]),
    (["sweep"], ["sweep/summary.csv",
                 "sweep/peak_fare_multiplier=2.0/agent_rl.txt",
                 "sweep/peak_fare_multiplier=3.0/agent_rl.txt",
                 "sweep/peak_fare_multiplier=2.0/acceptance_by_hour.csv",
                 "sweep/peak_fare_multiplier=3.0/acceptance_by_hour.csv"]),
]


def test_every_subcommand_reruns_identically(capsys, tmp_path):
    with verdict(capsys, "cli determinism"):
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(PIPELINE_CONFIG.format(out=out))
        base = ["--config", str(cfg_path)]

        for command, _ in COMMAND_ARTIFACTS:
            assert cli.main(command + base) == 0, command

        snapshots = {}
        for _, names in COMMAND_ARTIFACTS:
            for name in names:
                snapshots[name] = comparable_lines(out / name)

        # Replay every stage over the same outputs; only the timestamp
        # metadata line may differ.
        for command, names in COMMAND_ARTIFACTS:
            assert cli.main(command + base) == 0, command
            for name in names:
                assert comparable_lines(out / name) == snapshots[name], \
                    f"{command[0]} changed {name}"
