import shutil

import numpy as np
import pytest

from ridesim import cli
from ridesim.agent import FeatureScales
from ridesim.artifacts import (comparable_lines, read_csv_artifact,
                               read_data_lines, seed_stream)
from ridesim.config import (Config, ConfigError, apply_override,
                            config_from_dict, config_hash, config_to_dict,
                            load_config)
from ridesim.ridegen import GridSpec
from ridesim.sim import PlatformParams
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


class TestConfigHash:
    def test_stable_across_key_order(self):
        a = config_from_dict({"seed": 9, "agent": {"gamma": 0.5,
                                                   "epsilon": 0.1}})
        b = config_from_dict({"agent": {"epsilon": 0.1, "gamma": 0.5},
                              "seed": 9})
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 64

    def test_sensitive_to_values(self):
        a = config_from_dict({})
        b = config_from_dict({"agent": {"gamma": 0.59}})
        assert config_hash(a) != config_hash(b)

    def test_default_hash_is_pinned(self):
        # Artifact headers carry this digest; a moved default or a renamed
        # key changes it.
        assert config_hash(Config()) == (
            "0fa5bf70f99435ad167519f9afc2bdf4ae95612b367a372f1c37a1f1e936b9fd")

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
        with pytest.raises(ConfigError, match=r"agent.gamma must be in \[0, 1\)"):
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
        with pytest.raises(ConfigError, match="grid: grid dimensions"):
            config_from_dict({"grid": {"width_km": 0}})

    def test_bad_values_exit_2_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text('platform:\n  fare_per_km: "abc"\n')
        for argv in (["--set", "platform.fare_per_km=null"],
                     ["--config", str(path)],
                     ["--set", "agent.gamma=1.0"]):
            code = cli.main(["generate", "--out", str(tmp_path)] + argv)
            err = capsys.readouterr().err
            assert code == 2, argv
            assert err.startswith("error: ") and "Traceback" not in err


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

    def test_version_flag(self, capsys):
        from ridesim import __version__
        assert cli.main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out
