import contextlib
import dataclasses
import gc
import io
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import ridesim
from helpers import record_ride_streams, write_distribution
from ridesim import cli
from ridesim.agent import CategoricalQAgent, FeatureScales
from ridesim.artifacts import (comparable_lines, read_csv_artifact,
                               read_data_lines, seed_stream, write_artifact)
from ridesim.config import (Config, ConfigError, apply_override,
                            config_from_dict, config_hash, config_to_dict,
                            load_config)
from ridesim.distributions import fit_empirical
from ridesim.ingest import LOG_COLUMNS, TripRecord
from ridesim.ridegen import GridSpec, range_text
from ridesim.sim import PlatformParams, run_episode
from ridesim.synth import SyntheticLogSpec
from ridesim.training import BcConfig, RlConfig


class TestConfigParsing:
    def test_defaults(self):
        cfg = config_from_dict({})
        assert cfg.seed == 7
        assert cfg.grid.width_km == 10.0
        assert cfg.agent.gamma == 0.6
        assert cfg.platform.peak_hours == ((6, 8), (16, 19))
        assert cfg.sim.initial_weekly_trips is None

    def test_sections_are_the_domain_types(self):
        cfg = config_from_dict({})
        assert cfg.grid == GridSpec()
        assert cfg.platform == PlatformParams()
        assert cfg.bc == BcConfig()
        assert cfg.rl == RlConfig()
        assert cfg.synth == SyntheticLogSpec()

    def test_unknown_keys_fail_with_dotted_path(self):
        with pytest.raises(ConfigError, match="unknown key: agentt"):
            config_from_dict({"agentt": {}})
        with pytest.raises(ConfigError, match="unknown key: agent.gama"):
            config_from_dict({"agent": {"gama": 0.5}})

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            config_from_dict({"seed": "eleven"})
        with pytest.raises(ConfigError, match="must be an integer"):
            config_from_dict({"sim": {"driver_count": 2.5}})
        with pytest.raises(ConfigError, match="must be a string"):
            config_from_dict({"paths": {"trip_log": 5}})
        with pytest.raises(ConfigError, match="must be a list"):
            config_from_dict({"agent": {"hidden": 64}})

    def test_float_fields_accept_ints(self):
        cfg = config_from_dict({"platform": {"fare_per_km": 120}})
        assert cfg.platform.fare_per_km == 120.0
        assert isinstance(cfg.platform.fare_per_km, float)

    def test_validation(self):
        with pytest.raises(ConfigError, match="scale_factor"):
            config_from_dict({"demand": {"scale_factor": 0}})
        with pytest.raises(ConfigError, match="atom_count"):
            config_from_dict({"agent": {"atom_count": 1}})
        with pytest.raises(ConfigError, match="start_dow"):
            config_from_dict({"sim": {"start_dow": 9}})
        with pytest.raises(ConfigError, match="initial_weekly_trips"):
            config_from_dict({"sim": {"initial_weekly_trips": "lots"}})
        with pytest.raises(ConfigError, match="initial_weekly_trips"):
            config_from_dict({"sim": {"initial_weekly_trips": [3, "x"]}})
        config_from_dict({"sim": {"initial_weekly_trips": [3, 4]}})


class TestOverrides:
    def test_nested_override(self):
        cfg = load_config(None, ["agent.gamma=0.5",
                                 "platform.peak_hours=[[7, 9]]",
                                 "sim.initial_weekly_trips=[3, 4]"])
        assert cfg.agent.gamma == 0.5
        assert cfg.platform.peak_hours == ((7, 9),)
        assert cfg.sim.initial_weekly_trips == [3, 4]

    def test_override_wins_over_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 3\nagent:\n  gamma: 0.4\n")
        cfg = load_config(path, ["agent.gamma=0.9"])
        assert cfg.seed == 3
        assert cfg.agent.gamma == 0.9

    def test_bad_override_format(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_override({}, "agent.gamma")
        with pytest.raises(ConfigError, match="bad override key"):
            apply_override({}, ".gamma=1")

    def test_override_cannot_descend_into_scalar(self):
        data = {}
        apply_override(data, "seed=3")
        with pytest.raises(ConfigError, match="descends into a scalar"):
            apply_override(data, "seed.sub=1")

    def test_overrides_checked_like_file_keys(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(None, ["agent.gama=0.5"])

    def test_float_keys_take_exponent_notation(self, tmp_path):
        # YAML 1.1 reads 1e-3 and 1.0e3 as strings
        path = tmp_path / "cfg.yaml"
        path.write_text("agent:\n  learning_rate: 1e-3\n"
                        "platform:\n  fare_per_km: 1.0e2\n")
        cfg = load_config(path, ["rl.exploration=5E-2",
                                 "sim.speed_kmh=2.5E+1"])
        assert cfg.agent.learning_rate == 1e-3
        assert cfg.platform.fare_per_km == 100.0
        assert cfg.rl.exploration == 0.05 and cfg.sim.speed_kmh == 25.0
        with pytest.raises(ConfigError, match="agent: learning_rate must be"):
            load_config(None, ["agent.learning_rate=-1e-4"])
        for bad in ("1e", "e3", "1e-3x", "nan", "1_0e3"):
            with pytest.raises(ConfigError,
                               match="agent.learning_rate must be a number"):
                load_config(None, [f"agent.learning_rate={bad}"])

    def test_int_and_string_keys_keep_exponent_strings(self):
        with pytest.raises(ConfigError, match="sim.driver_count must be an "
                                              "integer"):
            load_config(None, ["sim.driver_count=1e3"])
        assert load_config(None, ["paths.out_dir=1e3"]).paths.out_dir == "1e3"


class TestConfigHash:
    def test_stable_across_key_order(self):
        a = config_from_dict({"seed": 9, "agent": {"gamma": 0.5,
                                                   "sync_every": 10}})
        b = config_from_dict({"agent": {"sync_every": 10, "gamma": 0.5},
                              "seed": 9})
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 64

    def test_sensitive_to_values(self):
        a = config_from_dict({})
        b = config_from_dict({"agent": {"gamma": 0.59}})
        assert config_hash(a) != config_hash(b)

    @pytest.mark.golden
    def test_default_hash_is_pinned(self):
        # Artifact headers carry this digest; a moved default or a renamed
        # key changes it.
        assert config_hash(Config()) == (
            "b0730853ca1eec9f6e5d09e1078086bc8fc68ef825db086a964d71882af6bcf7")

    def test_dict_roundtrip(self):
        # `sweep` rebuilds every variant through this path.
        cfg = config_from_dict({
            "seed": 3, "grid": {"width_km": 12},
            "platform": {"peak_hours": [[7, 9], [17, 20]],
                         "fare_per_km": 90},
            "sim": {"initial_weekly_trips": [3, 4]},
            "agent": {"hidden": [8, 8]}, "rl": {"patience": 2},
            "synth": {"start": "2026-03-02T00:00", "bias": 0.5},
            "sweep": {"param": "platform.fare_per_km", "values": [80, 90]}})
        assert cfg != Config()
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg
        assert config_hash(back) == config_hash(cfg)
        scalar = config_from_dict({"sim": {"initial_weekly_trips": 5}})
        assert config_from_dict(config_to_dict(scalar)) == scalar


def _section_fields():
    """(section, field) for every field of every `Config` section."""
    cfg = Config()
    return [(section.name, f) for section in dataclasses.fields(cfg)
            if section.name != "seed"
            for f in dataclasses.fields(getattr(cfg, section.name))]


def test_readme_config_table_names_every_key():
    """README's configuration table has one row per key, and its "valid
    values" cell opens with the range the key's field declares."""
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    table = readme.split("## Configuration reference", 1)[1].split("\n\n")[1]
    rows = {}
    for line in table.splitlines()[2:]:
        key, _, valid = (cell.strip() for cell in line.strip("|").split("|"))
        rows[key.strip("`")] = valid.split(";")[0]
    expected = {"seed": rows.get("seed")}
    for section, f in _section_fields():
        key = f"{section}.{f.name}"
        expected[key] = range_text(f) or rows.get(key)
    assert rows == expected
    assert all(rows.values())


class TestBuilders:
    def test_platform_peaks_become_tuples(self):
        cfg = config_from_dict({"platform": {"peak_hours": [[7, 9]]}})
        params = cfg.platform
        assert params.peak_hours == ((7, 9),)
        assert params.is_peak(7 * 60) and not params.is_peak(9 * 60)

    def test_platform_bad_peaks(self):
        for bad in ([[7]], [[7, "9"]], 7, [[True, 9]]):
            with pytest.raises(ConfigError, match="platform.peak_hours"):
                config_from_dict({"platform": {"peak_hours": bad}})
        with pytest.raises(ConfigError, match="platform: bad peak hour"):
            config_from_dict({"platform": {"peak_hours": [[9, 7]]}})

    def test_scales_follow_grid(self):
        cfg = config_from_dict({"grid": {"width_km": 6.0, "height_km": 8.0}})
        scales = FeatureScales.for_grid(cfg.grid)
        assert scales.drop_center_km == pytest.approx(5.0)

    def test_synth_spec_start_parsed(self):
        cfg = config_from_dict({"synth": {"start": "2026-03-02T00:00"}})
        start = cfg.synth.start_time()
        assert start.year == 2026 and start.month == 3

    def test_synth_spec_bad_start(self):
        with pytest.raises(ConfigError, match="synth: start 'next tuesday'"):
            config_from_dict({"synth": {"start": "next tuesday"}})
        with pytest.raises(ConfigError, match="synth: start must be a midnight"):
            config_from_dict({"synth": {"start": "2026-03-02T06:00"}})


class TestValuesCheckedAtLoad:
    """Every bad value stops the load with its dotted key."""

    def test_null_fare_override(self):
        with pytest.raises(ConfigError,
                           match="platform.fare_per_km must be a number"):
            load_config(None, ["platform.fare_per_km=null"])

    def test_string_fare(self):
        with pytest.raises(ConfigError,
                           match="platform.fare_per_km must be a number"):
            config_from_dict({"platform": {"fare_per_km": "abc"}})

    def test_string_peak_multiplier(self):
        with pytest.raises(ConfigError,
                           match="platform.peak_fare_multiplier must be"):
            config_from_dict({"platform": {"peak_fare_multiplier": "abc"}})

    def test_null_batch_size(self):
        with pytest.raises(ConfigError, match="bc.batch_size must be"):
            config_from_dict({"bc": {"batch_size": None}})

    def test_gamma_of_one_rejected(self):
        with pytest.raises(ConfigError, match=r"agent: gamma must be in \[0, 1\)"):
            config_from_dict({"agent": {"gamma": 1.0}})
        config_from_dict({"agent": {"gamma": 0.0}})

    def test_null_only_where_the_default_is_null(self):
        cfg = config_from_dict({"sim": {"initial_weekly_trips": None}})
        assert cfg.sim.initial_weekly_trips is None
        for section, key in (("sim", "driver_count"), ("synth", "start"),
                             ("agent", "hidden"), ("grid", "width_km")):
            with pytest.raises(ConfigError, match=f"{section}.{key} must be"):
                config_from_dict({section: {key: None}})

    def test_domain_checks_name_the_section(self):
        with pytest.raises(ConfigError, match="platform: fare_per_km"):
            config_from_dict({"platform": {"fare_per_km": -1}})
        with pytest.raises(ConfigError, match="rl: batch_size"):
            config_from_dict({"rl": {"batch_size": 0}})
        with pytest.raises(ConfigError, match="grid: width_km must be positive"):
            config_from_dict({"grid": {"width_km": 0}})

    @pytest.mark.parametrize("value", [-1.0, 0.0, float("inf"), float("nan")])
    def test_learning_rate_must_be_positive_and_finite(self, value):
        with pytest.raises(ConfigError, match="agent: learning_rate must be"):
            config_from_dict({"agent": {"learning_rate": value}})

    @pytest.mark.parametrize("hidden", [[1.5], [64, 0], [-8], [True], ["64"]])
    def test_hidden_must_hold_positive_ints(self, hidden):
        with pytest.raises(ConfigError, match="agent: hidden must be"):
            config_from_dict({"agent": {"hidden": hidden}})

    def test_max_offers_at_least_one(self):
        with pytest.raises(ConfigError, match="sim: max_offers must be"):
            config_from_dict({"sim": {"max_offers": 0}})
        assert config_from_dict({"sim": {"max_offers": 1}}).sim.max_offers == 1

    @pytest.mark.parametrize("key", ["peak_fare_multiplier",
                                     "weekly_target_multiplier",
                                     "weekly_reward_amount",
                                     "idle_cost_per_minute"])
    def test_platform_values_must_be_finite(self, key):
        with pytest.raises(ConfigError, match=f"platform: {key} must be finite"):
            config_from_dict({"platform": {key: float("nan")}})

    @pytest.mark.parametrize("section, key", [
        ("grid", "origin_lat"), ("grid", "origin_lon"), ("grid", "width_km"),
        ("grid", "noise_epsilon_km"), ("synth", "bias"),
        ("synth", "weight_trip_km"), ("synth", "offers_per_driver_day"),
        ("synth", "trip_km_log_mean"), ("synth", "trip_km_max")])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_world_values_must_be_finite(self, section, key, value):
        with pytest.raises(ConfigError, match=f"{section}: {key} must be finite"):
            config_from_dict({section: {key: value}})

    @pytest.mark.parametrize("origin_lat, height_km, ok", [
        (-90.0, 10.0, False), (95.0, 10.0, False), (89.95, 10.0, False),
        (-89.95, 10.0, True), (89.9, 10.0, True), (60.0, 10.0, True)])
    def test_grid_lies_between_the_poles(self, origin_lat, height_km, ok):
        grid = {"origin_lat": origin_lat, "height_km": height_km}
        if ok:
            assert config_from_dict({"grid": grid}).grid.origin_lat == origin_lat
        else:
            with pytest.raises(ConfigError, match="grid: grid must lie "
                                                  "strictly between latitudes"):
                config_from_dict({"grid": grid})

    def test_synth_trip_bounds_ordered(self):
        with pytest.raises(ConfigError, match="synth: trip_km_min must not "
                                              "exceed trip_km_max"):
            config_from_dict({"synth": {"trip_km_min": 30.0}})
        spec = config_from_dict({"synth": {"trip_km_min": 5.0,
                                           "trip_km_max": 5.0}}).synth
        assert spec.trip_km_min == spec.trip_km_max == 5.0

    @pytest.mark.parametrize("override, message", [
        ("sim.speed_kmh=0.0", "sim: speed_kmh must be at least 0.001"),
        ("sim.speed_kmh=.nan", "sim: speed_kmh must be finite"),
        ("agent.sync_every=0", "agent: sync_every must be at least 1"),
        ("demand.scale_factor=.inf", "demand: scale_factor must be finite"),
        ("platform.peak_fare_multiplier=.nan",
         "platform: peak_fare_multiplier must be finite"),
        ("demand.holdout_days=-1", "demand: holdout_days must be non-negative"),
        ("evaluate.replications=0",
         "evaluate: replications must be in [1, 10000]"),
        ("evaluate.replications=1000000000000",
         "evaluate: replications must be in [1, 10000]"),
        ("sim.speed_kmh=5e-324", "sim: speed_kmh must be at least 0.001"),
        ("sim.speed_kmh=1e-300", "sim: speed_kmh must be at least 0.001"),
        ("rl.buffer_transitions=0",
         "rl: buffer_transitions must be in [1, 10000000]"),
        ("rl.buffer_transitions=-5",
         "rl: buffer_transitions must be in [1, 10000000]"),
        ("grid.origin_lat=.nan", "grid: origin_lat must be finite"),
        ("grid.origin_lon=.inf", "grid: origin_lon must be finite"),
        ("grid.origin_lat=95", "grid: grid must lie strictly between "
                               "latitudes -90 and 90"),
        ("synth.bias=.nan", "synth: bias must be finite"),
        ("synth.trip_km_min=30",
         "synth: trip_km_min must not exceed trip_km_max")])
    def test_generate_names_the_key_of_a_bad_value(self, tmp_path, capsys,
                                                    override, message):
        code = cli.main(["generate", "--out", str(tmp_path),
                         "--set", override])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_removed_keys_are_unknown(self, tmp_path, capsys):
        # agent.epsilon had no reader (train-rl sets rl.exploration, evaluate
        # acts greedily) and each *_weight only scaled its price
        for key in ("agent.epsilon=0.1", "platform.fare_weight=2"):
            code = cli.main(["generate", "--out", str(tmp_path), "--set", key])
            assert code == 2
            name = key.split("=")[0]
            assert capsys.readouterr().err == f"error: unknown key: {name}\n"

    def test_bad_values_exit_2_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text('platform:\n  fare_per_km: "abc"\n')
        for argv, key in ((["--set", "platform.fare_per_km=null"],
                           "platform.fare_per_km"),
                          (["--config", str(path)], "platform.fare_per_km"),
                          (["--set", "agent.gamma=1.0"], "agent: gamma"),
                          (["--set", "agent.learning_rate=-1.0"],
                           "agent: learning_rate"),
                          (["--set", "agent.hidden=[1.5]"], "agent: hidden"),
                          (["--set", "sim.max_offers=0"], "sim: max_offers")):
            code = cli.main(["generate", "--out", str(tmp_path)] + argv)
            err = capsys.readouterr().err
            assert code == 2, argv
            assert err.startswith("error: ") and "Traceback" not in err
            assert key in err, argv

    def test_undecodable_config_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(b"seed: 3\n# caf\xe9\n")  # Latin-1, not UTF-8
        code = cli.main(["generate", "--config", str(path),
                         "--out", str(tmp_path)])
        assert code == 2
        assert (f"error: {path}: 'utf-8' codec can't decode"
                in capsys.readouterr().err)

    def test_utf8_comment_loads_under_the_c_locale(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("# café\nseed: 3\n", encoding="utf-8")
        src = str(Path(ridesim.__file__).parents[1])
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from ridesim.config import "
             "load_config; print(load_config(sys.argv[1]).seed)", str(path)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "3\n"


# A grid a hair wide leaves no room for the default noise band, and 1440
# offers a driver-day over the default 50 drivers and 28 days pass synth's
# offer budget.
_COMPANIONS = {"grid": {"noise_epsilon_km": 0.0},
               "synth": {"driver_count": 1, "days": 1}}


def _names_key(section, key):
    return pytest.raises(ConfigError, match=rf"^{section}(\.|: ){key}\b")


class TestDeclaredRanges:
    """Every key's declared range, read from its field's metadata, holds
    at load, and every value outside it stops the load naming the key."""

    @pytest.mark.parametrize("section, f", _section_fields(),
                             ids=[f"{s}.{f.name}" for s, f in _section_fields()])
    def test_bounds_load_and_values_past_them_name_the_key(self, section, f):
        default = getattr(getattr(Config(), section), f.name)
        is_list = isinstance(default, list)
        kind = type(default[0] if is_list and default else default)

        def load(value):
            return config_from_dict({section: {**_COMPANIONS.get(section, {}),
                                               f.name: value}})

        for key, bound in f.metadata.items():
            sign = 1 if key in ("ge", "gt") else -1  # the side values lie on
            if key in ("ge", "le"):  # the bound loads, the next value out not
                ok = bound
                bad = (bound - sign if kind is int
                       else math.nextafter(bound, -sign * math.inf))
            else:
                ok, bad = bound + sign * (1 if kind is int else 1e-6), bound
            load([ok] if is_list else ok)
            with _names_key(section, f.name):
                load([bad] if is_list else bad)
        if kind is float:
            for value in (math.nan, math.inf, -math.inf):
                with _names_key(section, f.name):
                    load(value)
        with _names_key(section, f.name):
            config_from_dict({section: {f.name: 5 if kind is str else "x"}})

    @pytest.mark.parametrize("override", [
        "synth.offers_per_driver_day=1e12", "synth.trip_km_log_sigma=-1",
        "rl.buffer_transitions=10000000000000", "agent.hidden=[100000000000]",
        "rl.batch_size=10000000000000", "sim.driver_count=1000000000000",
        "sim.speed_kmh=5e-324", "sim.speed_kmh=1e-300",
        "evaluate.replications=1000000000000", "sim.weeks=1000000000",
        "synth.driver_count=1000000000", "synth.days=1000000"])
    def test_values_that_used_to_end_in_a_traceback_exit_2(
            self, tmp_path, capsys, override):
        # numpy's _ArrayMemoryError, "sigma < 0" naming no key, or a run
        # that went on until it was killed (`generate` over 10^9 weeks, or
        # `synth` over 10^9 drivers); a synth size names its product
        section, key = override.split("=")[0].split(".")
        command = "generate" if key == "weeks" else "synth"
        code = cli.main([command, "--out", str(tmp_path), "--set", override])
        err = capsys.readouterr().err
        assert code == 2
        product = rf"(\w+ \* )*{key}( \* \w+)*"   # or a budget's product
        assert re.match(rf"error: {section}: {product} must be ", err), err

    def test_accept_probability_saturates_without_overflow(self):
        obs, scales = np.zeros(6), FeatureScales().as_array()
        for bias, p in ((1000.0, 1.0), (-1000.0, 0.0),
                        (-2.0, 1.0 / (1.0 + math.exp(2.0)))):
            assert SyntheticLogSpec(bias=bias).accept_probability(
                obs, scales) == p

    def test_synth_runs_a_policy_whose_logit_overflows(self, tmp_path,
                                                        capsys):
        code = cli.main(["synth", "--out", str(tmp_path),
                         "--set", "synth.days=1", "--set", "synth.driver_count=1",
                         "--set", "synth.bias=-800"])
        assert code == 0
        assert "(0 completed)" in capsys.readouterr().out


def _synth_values(f):
    """Values at and past field `f`'s declared bounds, and of other types."""
    if f.name == "start":
        return st.one_of(st.dates().map(lambda d: f"{d.isoformat()}T00:00"),
                         st.sampled_from(["2026-02-02T06:00", "x", 5]))
    edges = ["x", None, True]
    for bound in f.metadata.values():
        edges += [bound - 1, bound, bound + 1]
    if not isinstance(f.default, float):
        return st.sampled_from(edges + [2.5])
    for bound in f.metadata.values():
        edges += [math.nextafter(bound, -math.inf),
                  math.nextafter(bound, math.inf)]
    return st.one_of(st.sampled_from(edges + [math.nan, math.inf, -math.inf]),
                     st.floats())


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_synth_runs_or_names_the_bad_key(data):
    """One `synth` key at a time, at and past its bounds, on one driver for
    one day: the command runs, or exits 2 naming the key."""
    f = data.draw(st.sampled_from(dataclasses.fields(SyntheticLogSpec)))
    synth = {"days": 1, "driver_count": 1, f.name: data.draw(_synth_values(f))}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(cli, "usable_cpus", lambda: 1), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        path = Path(out) / "cfg.yaml"
        path.write_text(yaml.safe_dump({"synth": synth}))
        code = cli.main(["synth", "--config", str(path), "--out", out])
    assert code == 0 or (code == 2 and f.name in err.getvalue()), err.getvalue()


class TestSeedStreams:
    def test_reproducible(self):
        a = seed_stream(11, "generate").random(5)
        b = seed_stream(11, "generate").random(5)
        np.testing.assert_array_equal(a, b)

    def test_names_are_independent(self):
        a = seed_stream(11, "generate").random(5)
        b = seed_stream(11, "bc-train").random(5)
        assert not np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = seed_stream(11, "generate").random(5)
        b = seed_stream(12, "generate").random(5)
        assert not np.array_equal(a, b)


class TestAtomicWrites:
    def test_one_line_per_entry_then_a_newline(self, tmp_path):
        path = tmp_path / "sub" / "a.txt"
        write_artifact(path, ["x 1", "", "y 2"], "0.1", "abc", 3)
        lines = path.read_text().split("\n")
        assert lines[:3] == ["# ridesim 0.1", "# config abc", "# seed 3"]
        assert lines[4:] == ["x 1", "", "y 2", ""]

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "a.txt"
        write_artifact(path, ["old"], "0.1", "abc", 3)
        before = path.read_text()

        def body():
            yield "new 1"
            yield "new 2"
            raise RuntimeError("crash mid-write")

        with pytest.raises(RuntimeError, match="mid-write"):
            write_artifact(path, body(), "0.1", "abc", 3)
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


TINY_CONFIG = """\
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
  speed_kmh: 30.0
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


# what evaluate reads besides holdout.txt, and what it writes
EVALUATE_INPUTS = ("dist_pickup_x.txt", "dist_pickup_y.txt",
                   "dist_trip_km.txt", "time_profile.txt",
                   "driver_averages.csv", "agent_rl.txt")
EVALUATE_OUTPUTS = ("daily_counts.csv", "acceptance_by_hour.csv",
                    "acceptance_by_distance.csv", "correlations.txt")


def _edit_holdout_line(key, change):
    """An edit of holdout.txt's lines: `change` maps the values of `key`'s
    line to new ones."""
    def edit(lines):
        return [" ".join([key, *change(line.split()[1:])])
                if line.split()[0] == key else line for line in lines]
    return edit


def _drop_holdout_line(key):
    return lambda lines: [line for line in lines if line.split()[0] != key]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full command line run shared by the CLI assertions."""
    root = tmp_path_factory.mktemp("pipeline")
    out = root / "out"
    cfg_path = root / "cfg.yaml"
    cfg_path.write_text(TINY_CONFIG.format(out=out))
    base = ["--config", str(cfg_path)]
    for command in (["synth"], ["ingest"], ["fit"], ["generate"],
                    ["train-bc"], ["train-rl"], ["evaluate"]):
        code = cli.main(command + base)
        assert code == 0, f"{command} exited {code}"
    return cfg_path, out


class TestCliPipeline:
    def test_artifacts_exist(self, pipeline):
        _, out = pipeline
        for name in ("synthetic_trips.csv", "cleaned_trips.csv", "rejects.csv",
                     "cleaning_report.txt", "dist_pickup_x.txt",
                     "dist_pickup_y.txt", "dist_trip_km.txt",
                     "time_profile.txt", "driver_averages.csv", "rides.csv",
                     "agent_bc.txt", "bc_report.csv", "agent_rl.txt",
                     "rl_report.csv", "daily_counts.csv",
                     "acceptance_by_hour.csv", "acceptance_by_distance.csv",
                     "correlations.txt"):
            assert (out / name).exists(), name

    def test_headers_carry_provenance(self, pipeline):
        _, out = pipeline
        from ridesim import __version__
        lines = (out / "daily_counts.csv").read_text().splitlines()
        assert lines[0] == f"# ridesim {__version__}"
        assert lines[1].startswith("# config ")
        assert len(lines[1].split()[2]) == 64
        assert lines[2] == "# seed 11"
        assert lines[3].startswith("# written ") and lines[3].endswith("Z")

    def test_daily_counts_shape(self, pipeline):
        _, out = pipeline
        columns, rows = read_csv_artifact(out / "daily_counts.csv")
        assert columns == ["day", "dow", "predicted_mean", "ci_low",
                           "ci_high", "actual", "delta_percent"]
        assert len(rows) == 7   # aligned to the holdout days
        assert all(row[5] for row in rows), "expected actuals for every day"

    def test_rerun_is_deterministic(self, pipeline):
        cfg_path, out = pipeline
        before = {name: comparable_lines(out / name)
                  for name in ("daily_counts.csv", "acceptance_by_hour.csv",
                               "acceptance_by_distance.csv",
                               "correlations.txt")}
        assert cli.main(["evaluate", "--config", str(cfg_path)]) == 0
        for name, lines in before.items():
            assert comparable_lines(out / name) == lines, name

    @pytest.mark.golden
    def test_evaluate_never_reads_the_trip_log(self, pipeline, tmp_path,
                                               monkeypatch):
        # the log side of the comparison is holdout.txt, written by fit, so
        # a directory without cleaned_trips.csv gives the same payloads
        cfg_path, out = pipeline
        for name in EVALUATE_INPUTS + ("holdout.txt",):
            shutil.copy(out / name, tmp_path / name)

        def read_trip_log(path):
            raise AssertionError(f"evaluate read {path}")

        monkeypatch.setattr(cli, "read_trip_log", read_trip_log)
        assert cli.main(["evaluate", "--config", str(cfg_path),
                         "--out", str(tmp_path)]) == 0
        assert cli.main(["evaluate", "--config", str(cfg_path)]) == 0
        for name in EVALUATE_OUTPUTS:
            assert (read_data_lines(tmp_path / name)
                    == read_data_lines(out / name)), name
        assert any(line.startswith("daily_count_pearson ") for line in
                   read_data_lines(tmp_path / "correlations.txt"))

    @pytest.mark.parametrize("edit, reason", [
        (lambda lines: lines[:-2], "expected the lines"),
        (_drop_holdout_line("start_dow"),
         "holdout header has no 'start_dow' line"),
        (_drop_holdout_line("holdout_days"),
         "holdout header has no 'holdout_days' line"),
        (_edit_holdout_line("daily", lambda v: v[:-1]), "daily needs 7"),
        (_edit_holdout_line("hour_offers", lambda v: v[:-1]),
         "24 bins, but 23 offer and 24 accept counts"),
        (_edit_holdout_line("distance_accepted", lambda v: v + ["0"]),
         "21 bins, but 21 offer and 22 accept counts"),
        (_edit_holdout_line("daily", lambda v: ["1.5"] + v[1:]), "'1.5'"),
        (_edit_holdout_line("hour_accepted", lambda v: ["1000000"] * len(v)),
         "exceed its offers")],
        ids=["truncated", "no-start-dow", "no-holdout-days", "short-daily",
             "short-hour-bins", "long-distance-bins", "non-integer",
             "accepts-above-offers"])
    def test_malformed_holdout_exits_2_naming_it(self, pipeline, tmp_path,
                                                 capsys, edit, reason):
        cfg_path, out = pipeline
        for name in EVALUATE_INPUTS:
            shutil.copy(out / name, tmp_path / name)
        lines = (out / "holdout.txt").read_text().splitlines()
        (tmp_path / "holdout.txt").write_text("\n".join(edit(lines)) + "\n")
        code = cli.main(["evaluate", "--config", str(cfg_path),
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {tmp_path / 'holdout.txt'}: " in err
        assert reason in err
        assert "Traceback" not in err

    def test_missing_holdout_names_fit(self, pipeline, tmp_path, capsys):
        cfg_path, out = pipeline
        for name in EVALUATE_INPUTS:
            shutil.copy(out / name, tmp_path / name)
        code = cli.main(["evaluate", "--config", str(cfg_path),
                         "--out", str(tmp_path)])
        assert code == 2
        assert (f"missing {tmp_path / 'holdout.txt'}; run `ridesim fit` first"
                in capsys.readouterr().err)

    def test_holdout_days_are_fixed_at_fit(self, pipeline, capsys):
        cfg_path, out = pipeline
        code = cli.main(["evaluate", "--config", str(cfg_path),
                         "--set", "demand.holdout_days=5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "holds out 7 days but demand.holdout_days is 5" in err
        assert "re-run `ridesim fit`" in err

    def test_no_holdout_days_compares_nothing(self, pipeline, tmp_path):
        cfg_path, out = pipeline
        for name in ("cleaned_trips.csv", "agent_bc.txt"):
            shutil.copy(out / name, tmp_path / name)
        for command in ("fit", "evaluate"):
            assert cli.main([command, "--config", str(cfg_path),
                             "--out", str(tmp_path),
                             "--set", "demand.holdout_days=0"]) == 0, command
        lines = read_data_lines(tmp_path / "holdout.txt")
        assert lines[:2] == ["ridesim-holdout v1", "holdout_days 0"]
        assert [line.split()[0] for line in lines[2:]] == ["start_dow"]
        _, rows = read_csv_artifact(tmp_path / "daily_counts.csv")
        assert len(rows) == 7 and not any(row[5] for row in rows)
        assert not any("pearson" in line for line in
                       read_data_lines(tmp_path / "correlations.txt"))

    def test_predictions_use_the_fitted_scale(self, pipeline, tmp_path):
        # the episodes draw demand from time_profile.txt, fitted at scale
        # 2.0, so a later demand.scale_factor changes neither the episodes
        # nor the scale their counts are reported at
        cfg_path, out = pipeline
        for name in ("holdout.txt", "dist_pickup_x.txt",
                     "dist_pickup_y.txt", "dist_trip_km.txt",
                     "time_profile.txt", "driver_averages.csv",
                     "agent_rl.txt"):
            shutil.copy(out / name, tmp_path / name)
        assert cli.main(["evaluate", "--config", str(cfg_path),
                         "--out", str(tmp_path),
                         "--set", "demand.scale_factor=4.0"]) == 0
        for name in ("daily_counts.csv", "acceptance_by_hour.csv"):
            assert (read_csv_artifact(tmp_path / name)
                    == read_csv_artifact(out / name)), name

    def test_sweep_artifacts(self, pipeline):
        cfg_path, out = pipeline
        assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
        summary = out / "sweep" / "summary.csv"
        assert summary.exists()
        columns, rows = read_csv_artifact(summary)
        assert len(rows) == 2
        for value in ("2.0", "3.0"):
            sub = out / "sweep" / f"peak_fare_multiplier={value}"
            assert (sub / "agent_rl.txt").exists()
            assert (sub / "acceptance_by_hour.csv").exists()

    def test_sweep_scores_the_agent_it_saves(self, pipeline, tmp_path,
                                             monkeypatch):
        cfg_path, out = pipeline
        for name in ("dist_pickup_x.txt", "dist_pickup_y.txt",
                     "dist_trip_km.txt", "time_profile.txt",
                     "driver_averages.csv", "agent_bc.txt"):
            shutil.copy(out / name, tmp_path / name)
        # the calls are recorded in this process, so no replication forks
        monkeypatch.setattr(cli, "usable_cpus", lambda: 1)
        scored = []

        def replicate(sim_config, agent, rng):
            scored.append(agent.to_lines())
            return run_episode(sim_config, agent, rng)

        monkeypatch.setattr(cli, "run_episode", replicate)
        assert cli.main(["sweep", "--config", str(cfg_path),
                         "--out", str(tmp_path), "--set", "rl.patience=0",
                         "--set", "rl.iterations=4"]) == 0
        best_is_last = []
        for k, value in enumerate(("2.0", "3.0")):
            sub = tmp_path / "sweep" / f"peak_fare_multiplier={value}"
            saved = CategoricalQAgent.load(sub / "agent_rl.txt")
            saved.epsilon = 0.0
            assert scored[2 * k:2 * k + 2] == [saved.to_lines()] * 2, value
            _, rows = read_csv_artifact(sub / "rl_report.csv")
            rewards = [float(row[2]) for row in rows]
            best_is_last.append(rewards.index(max(rewards)) == len(rows) - 1)
        assert not all(best_is_last), "every variant saved its last iterate"

    @pytest.mark.golden
    def test_sweep_values_share_each_replications_demand(self, pipeline,
                                                         tmp_path,
                                                         monkeypatch):
        cfg_path, out = pipeline
        for name in ("dist_pickup_x.txt", "dist_pickup_y.txt",
                     "dist_trip_km.txt", "time_profile.txt",
                     "driver_averages.csv", "agent_bc.txt"):
            shutil.copy(out / name, tmp_path / name)
        monkeypatch.setattr(cli, "usable_cpus", lambda: 1)
        streams = record_ride_streams(monkeypatch)
        assert cli.main(["sweep", "--config", str(cfg_path),
                         "--out", str(tmp_path),
                         "--set", "rl.iterations=1"]) == 0
        # per value: one training episode, then two replications
        assert len(streams) == 6
        (first_train, first_rep0, first_rep1,
         second_train, second_rep0, second_rep1) = streams
        assert first_train and first_train == second_train
        assert first_rep0 and first_rep0 == second_rep0
        assert first_rep1 == second_rep1 and first_rep0 != first_rep1

    @pytest.mark.parametrize("cpus, count", [(1, 3), (2, 5), (4, 3)])
    def test_worker_k_runs_the_replications_congruent_to_k(
            self, monkeypatch, cpus, count):
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        results = cli._in_workers(lambda i: (i, os.getpid()), count)
        assert [i for i, _ in results] == list(range(count))
        workers = min(cpus, count)
        pids = [pid for _, pid in results]
        assert set(pids[::workers]) == {os.getpid()}
        assert len(set(pids)) == workers
        assert all(len(set(pids[k::workers])) == 1 for k in range(workers))

    @pytest.mark.golden
    def test_replications_merge_alike_on_one_or_two_workers(
            self, pipeline, tmp_path, monkeypatch):
        # three replications split unevenly over two workers: 0 and 2 run
        # here and 1 in a forked child, and every payload stays the same
        cfg_path, out = pipeline
        payloads = {}
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
            run_dir = tmp_path / f"cpus{cpus}"
            run_dir.mkdir()
            for name in EVALUATE_INPUTS + ("holdout.txt", "agent_bc.txt"):
                shutil.copy(out / name, run_dir / name)
            for command in ("evaluate", "sweep"):
                assert cli.main([command, "--config", str(cfg_path),
                                 "--out", str(run_dir),
                                 "--set", "evaluate.replications=3",
                                 "--set", "rl.iterations=1"]) == 0, command
            payloads[cpus] = {path.relative_to(run_dir): read_data_lines(path)
                              for path in run_dir.rglob("*") if path.is_file()}
        assert payloads[1] == payloads[2]
        written = {str(path) for path in payloads[1]}
        assert set(EVALUATE_OUTPUTS) <= written
        assert "sweep/summary.csv" in written
        assert ("sweep/peak_fare_multiplier=3.0/acceptance_by_distance.csv"
                in written)
        assert "replications 3" in payloads[1][Path("correlations.txt")]

    @pytest.mark.parametrize("where", ["nowhere", "child", "parent", "dies"])
    def test_replication_workers_never_outlive_evaluate(
            self, pipeline, tmp_path, capsys, monkeypatch, where):
        cfg_path, out = pipeline
        for name in EVALUATE_INPUTS + ("holdout.txt",):
            shutil.copy(out / name, tmp_path / name)
        parent = os.getpid()

        def episode(sim_config, agent, rng):
            in_child = os.getpid() != parent
            if where == "dies" and in_child:
                os._exit(1)
            if where == ("child" if in_child else "parent"):
                raise ValueError(f"replication failed in the {where}")
            return run_episode(sim_config, agent, rng)

        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "run_episode", episode)
        code = cli.main(["evaluate", "--config", str(cfg_path),
                         "--out", str(tmp_path),
                         "--set", "evaluate.replications=3"])
        err = capsys.readouterr().err
        if where == "nowhere":
            assert code == 0, err
        else:
            assert code == 2
            assert ("exited without its results" if where == "dies"
                    else f"error: replication failed in the {where}") in err
            assert "Traceback" not in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("key, values", [
        ("demand.scale_factor", "[2.0, 4.0]"), ("bc.iterations", "[1, 50]"),
        ("grid.width_km", "[8.0, 12.0]"), ("synth.days", "[14, 21]"),
        ("agent.learning_rate", "[0.001, 0.01]"),
        ("paths.out_dir", "[a, b]")])
    def test_sweep_refuses_a_key_fixed_before_training(self, pipeline,
                                                       tmp_path, capsys, key,
                                                       values):
        cfg_path, out = pipeline
        for name in ("dist_pickup_x.txt", "dist_pickup_y.txt",
                     "dist_trip_km.txt", "time_profile.txt",
                     "driver_averages.csv", "agent_bc.txt"):
            shutil.copy(out / name, tmp_path / name)
        code = cli.main(["sweep", "--config", str(cfg_path),
                         "--out", str(tmp_path), "--set", f"sweep.param={key}",
                         "--set", f"sweep.values={values}"])
        assert code == 2
        assert f"sweep cannot vary {key}" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_agent_file_without_gamma_exits_2(self, pipeline, tmp_path,
                                              capsys):
        cfg_path, out = pipeline
        bad = tmp_path / "agent_no_gamma.txt"
        lines = (out / "agent_bc.txt").read_text().splitlines()
        bad.write_text("\n".join(ln for ln in lines
                                 if not ln.startswith("gamma ")) + "\n")
        code = cli.main(["evaluate", "--config", str(cfg_path),
                         "--agent", str(bad)])
        assert code == 2
        assert "'gamma'" in capsys.readouterr().err

    def test_agent_file_without_a_weight_block_exits_2(self, pipeline,
                                                       tmp_path, capsys):
        cfg_path, out = pipeline
        lines = (out / "agent_bc.txt").read_text().splitlines()
        start = next(i for i, ln in enumerate(lines) if ln.startswith("W 1 "))
        rows = int(lines[start].split()[2])
        bad = tmp_path / "agent_no_w1.txt"
        bad.write_text("\n".join(lines[:start] + lines[start + 1 + rows:])
                       + "\n")
        code = cli.main(["evaluate", "--config", str(cfg_path),
                         "--agent", str(bad)])
        assert code == 2
        assert "agent_no_w1.txt:online: no 'W 1" in capsys.readouterr().err

    def test_non_finite_training_loss_exits_2(self, pipeline, tmp_path,
                                              capsys):
        cfg_path, out = pipeline
        shutil.copy(out / "cleaned_trips.csv", tmp_path / "cleaned_trips.csv")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["train-bc", "--config", str(cfg_path),
                             "--out", str(tmp_path),
                             "--set", "agent.learning_rate=1.0e+300"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: non-finite training loss")
        assert "Traceback" not in err
        assert [w for w in caught if w.category is RuntimeWarning] == []

    @pytest.mark.parametrize("command, name", [
        ("ingest", "synthetic_trips.csv"), ("generate", "time_profile.txt"),
        ("generate", "dist_trip_km.txt"), ("generate", "driver_averages.csv")])
    def test_undecodable_file_exits_2_naming_it(self, pipeline, tmp_path,
                                                capsys, command, name):
        cfg_path, out = pipeline
        for copied in ("synthetic_trips.csv", "dist_pickup_x.txt",
                       "dist_pickup_y.txt", "dist_trip_km.txt",
                       "time_profile.txt", "driver_averages.csv"):
            shutil.copy(out / copied, tmp_path / copied)
        bad = tmp_path / name
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        code = cli.main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path), "--set",
                         f"paths.trip_log={tmp_path / 'synthetic_trips.csv'}"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {bad}: 'utf-8' codec can't decode" in err

    def test_truncated_distribution_exits_2(self, pipeline, tmp_path, capsys):
        cfg_path, out = pipeline
        for name in ("dist_pickup_x.txt", "dist_pickup_y.txt",
                     "dist_trip_km.txt", "time_profile.txt"):
            shutil.copy(out / name, tmp_path / name)
        lines = (out / "dist_pickup_x.txt").read_text().splitlines()
        magic = lines.index("ridesim-dist v1")
        (tmp_path / "dist_pickup_x.txt").write_text(
            "\n".join(lines[:magic + 1]) + "\n")
        code = cli.main(["generate", "--config", str(cfg_path),
                         "--out", str(tmp_path)])
        assert code == 2
        assert "dist_pickup_x.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "train-rl"])
    @pytest.mark.parametrize("body, reason", [
        (["d000,3.0", "d001"], "row 2: field count 1, header has 2"),
        (["d000,inf"], "row 1: weekly_trips 'inf'"),
        (["d000,3.0", "d001,nan"], "row 2: weekly_trips 'nan'"),
        (["d000,-2.5"], "row 1: weekly_trips '-2.5'"),
        (["d000,lots"], "row 1: weekly_trips 'lots'")])
    def test_malformed_driver_averages_exit_2(self, pipeline, tmp_path,
                                              capsys, command, body, reason):
        cfg_path, out = pipeline
        for name in ("dist_pickup_x.txt", "dist_pickup_y.txt",
                     "dist_trip_km.txt", "time_profile.txt", "agent_bc.txt"):
            shutil.copy(out / name, tmp_path / name)
        (tmp_path / "driver_averages.csv").write_text(
            "\n".join(["# seed 11", "driver_id,weekly_trips"] + body) + "\n")
        code = cli.main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"driver_averages.csv {reason}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["evaluate", "train-rl"])
    @pytest.mark.parametrize("setting, averages, named", [
        ("platform.weekly_target_multiplier=1.0e+300", None,
         "multiplier 1e+300"),
        ("sim.initial_weekly_trips=100000000000000000000000", None,
         "100000000000000000000000 trips"),
        (None, "d000,1e30", f"{int(1e30 + 0.5)} trips")])
    def test_overflowing_weekly_goal_exits_2(self, pipeline, tmp_path, capsys,
                                             command, setting, averages,
                                             named):
        cfg_path, out = pipeline
        for name in ("dist_pickup_x.txt", "dist_pickup_y.txt",
                     "dist_trip_km.txt", "time_profile.txt", "holdout.txt",
                     "driver_averages.csv", "agent_bc.txt"):
            shutil.copy(out / name, tmp_path / name)
        if averages is not None:
            (tmp_path / "driver_averages.csv").write_text(
                "# seed 11\ndriver_id,weekly_trips\n" + averages + "\n")
        extra = [] if setting is None else ["--set", setting]
        code = cli.main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path), *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: a weekly goal of ")
        assert "does not fit a 64-bit integer" in err
        assert named in err
        assert "Traceback" not in err

    def test_unplaceable_drop_point_exits_2(self, pipeline, tmp_path, capsys):
        cfg_path, out = pipeline
        for name in ("dist_pickup_x.txt", "dist_pickup_y.txt",
                     "time_profile.txt"):
            shutil.copy(out / name, tmp_path / name)
        write_distribution(fit_empirical([1e300, 2e300]),
                           tmp_path / "dist_trip_km.txt", "trip_km")
        code = cli.main(["generate", "--config", str(cfg_path),
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: drop placement failed to converge")
        assert "Traceback" not in err
        assert not (tmp_path / "rides.csv").exists()

    @pytest.mark.golden
    def test_line_break_in_a_text_field_is_a_parse_reject(self, pipeline,
                                                          tmp_path, capsys):
        # the CSV reader keeps \x1c in a field; ingest's input validation
        # still rejects the row
        cfg_path, out = pipeline
        lines = (out / "synthetic_trips.csv").read_text().split("\n")
        row = lines.index(",".join(LOG_COLUMNS)) + 18
        lines[row] = lines[row].rpartition(",")[0] + ",ca\x1csh"
        raw = tmp_path / "raw.csv"
        raw.write_text("\n".join(lines), encoding="utf-8")
        base = ["--config", str(cfg_path), "--out", str(tmp_path)]
        assert cli.main(["ingest", *base, "--trip-log", str(raw)]) == 0
        assert cli.main(["fit", *base]) == 0, capsys.readouterr().err
        _, rejects = read_csv_artifact(tmp_path / "rejects.csv")
        assert rejects == [["18", "line break in payment_method"]]

    def test_distance_past_half_the_earth_is_a_parse_reject(
            self, pipeline, tmp_path, capsys):
        # at 1e12 km the trip's end overflowed a timedelta in train-bc
        cfg_path, out = pipeline
        lines = (out / "synthetic_trips.csv").read_text().split("\n")
        header = lines.index(",".join(LOG_COLUMNS))
        row = next(i for i in range(header, len(lines))
                   if ",completed," in lines[i])
        fields = lines[row].split(",")
        fields[LOG_COLUMNS.index("trip_distance_km")] = "1000000000000"
        lines[row] = ",".join(fields)
        raw = tmp_path / "raw.csv"
        raw.write_text("\n".join(lines), encoding="utf-8")
        base = ["--config", str(cfg_path), "--out", str(tmp_path)]
        for command in (["ingest", "--trip-log", str(raw)], ["fit"],
                        ["train-bc"]):
            assert cli.main(command + base) == 0, capsys.readouterr().err
        _, rejects = read_csv_artifact(tmp_path / "rejects.csv")
        assert rejects == [[str(row - header),
                            "trip_distance_km over 20000 km"]]

    def test_over_long_field_exits_2(self, pipeline, tmp_path, capsys):
        cfg_path, out = pipeline
        lines = (out / "synthetic_trips.csv").read_text().split("\n")
        row = lines.index(",".join(LOG_COLUMNS)) + 3
        lines[row] = lines[row] + "x" * 200_000
        raw = tmp_path / "raw.csv"
        raw.write_text("\n".join(lines), encoding="utf-8")
        code = cli.main(["ingest", "--config", str(cfg_path),
                         "--out", str(tmp_path), "--trip-log", str(raw)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {raw}: data row 3: field larger than "
                              "field limit")
        assert "Traceback" not in err
        assert not (tmp_path / "cleaned_trips.csv").exists()

    def test_train_bc_trains_without_the_parsed_log(self, pipeline, tmp_path,
                                                    monkeypatch):
        cfg_path, out = pipeline
        shutil.copy(out / "cleaned_trips.csv", tmp_path / "cleaned_trips.csv")
        real, live = cli.train_bc, []

        def records():
            return sum(isinstance(o, TripRecord) for o in gc.get_objects())

        def train_bc(*args, **kwargs):
            live.append(records())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "train_bc", train_bc)
        gc.collect()
        before = records()
        assert cli.main(["train-bc", "--config", str(cfg_path),
                         "--out", str(tmp_path)]) == 0
        assert live == [before]

    def test_read_helpers_skip_headers(self, pipeline):
        _, out = pipeline
        lines = read_data_lines(out / "cleaning_report.txt")
        assert lines[0].startswith("parse_rejected ")
        assert not any(ln.startswith("#") for ln in lines)


class TestCliErrors:
    def test_unknown_command_is_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_bad_override_is_config_error(self, tmp_path, capsys):
        code = cli.main(["generate", "--out", str(tmp_path), "--set",
                         "agent.gama=1"])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_artifact_names_producer(self, tmp_path, capsys):
        code = cli.main(["generate", "--out", str(tmp_path / "empty")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ridesim fit" in err

    def test_train_rl_requires_bc_checkpoint(self, tmp_path, capsys):
        code = cli.main(["train-rl", "--out", str(tmp_path / "empty")])
        assert code == 2
        assert "train-bc" in capsys.readouterr().err

    def test_a_log_before_the_year_1000_ingests_without_rejects(
            self, tmp_path, capsys):
        # strftime wrote the year 999 as "999", which ingest then rejected
        base = ["--out", str(tmp_path), "--set", "synth.start=0999-01-05T00:00",
                "--set", "synth.days=14", "--set", "synth.driver_count=2"]
        assert cli.main(["synth", *base]) == 0
        assert cli.main(["ingest", *base, "--trip-log",
                         str(tmp_path / "synthetic_trips.csv")]) == 0
        assert read_csv_artifact(tmp_path / "rejects.csv")[1] == []
        _, rows = read_csv_artifact(tmp_path / "cleaned_trips.csv")
        assert rows and all(row[2].startswith("0999-01-") for row in rows)
        capsys.readouterr()
        assert cli.main(["fit", *base]) == 0
        assert "from 0999-01-05 to 0999-01-12" in capsys.readouterr().out

    def test_demand_over_the_ride_budget_names_the_keys(self, tmp_path,
                                                        capsys):
        # fitted at 1e-6 scale, a week expects ~10^8 rides: generate ended
        # in a MemoryError
        base = ["--out", str(tmp_path), "--set", "synth.driver_count=3",
                "--set", "synth.days=14"]
        for command in (["synth"], ["ingest", "--trip-log",
                                    str(tmp_path / "synthetic_trips.csv")],
                        ["fit", "--set", "demand.scale_factor=1e-6"]):
            assert cli.main(command + base) == 0
        capsys.readouterr()
        assert cli.main(["generate", *base]) == 2
        err = capsys.readouterr().err
        assert "sim.weeks" in err and "demand.scale_factor" in err
        assert not (tmp_path / "rides.csv").exists()

    def test_version_flag(self, capsys):
        from ridesim import __version__
        assert cli.main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out
