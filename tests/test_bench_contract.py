"""The names the benchmark in `bench/` reads from the package.

The benchmark wraps functions by name for its per-layer metrics, builds the
grid and platform through `config`, makes `OfferRecord`s in its self-test
and sums demonstration trajectories for a digest. A rename in `src/` would
zero a metric or break a benchmark run without failing a test; these checks
make it fail here. The bench files are read as source, not imported: they
set up import paths of their own.
"""

import ast
import importlib
import inspect
from pathlib import Path

from ridesim import config, ingest, sim
from ridesim.synth import SyntheticLogSpec, generate_synthetic_log

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tree(filename: str) -> ast.Module:
    return ast.parse((BENCH / filename).read_text(encoding="utf-8"))


def _constant(filename: str, name: str):
    """The literal value a bench module assigns to `name`."""
    for node in _tree(filename).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets)):
            return ast.literal_eval(node.value)
    raise LookupError(f"bench/{filename} assigns no {name}")


def _traced(name: str, class_prefix: dict) -> bool:
    """Whether the tracer wraps a function or method under span `name`: a
    public function defined in its layer's module, or a function or
    classmethod of a class that `class_prefix` maps to the name's prefix."""
    layer, _, attr = name.partition(".")
    module = importlib.import_module(f"ridesim.{layer}")
    obj = vars(module).get(attr)
    if inspect.isfunction(obj) and obj.__module__ == module.__name__:
        return True
    for (owner, cls_name), prefix in class_prefix.items():
        if owner == layer and name.startswith(prefix + "."):
            method = vars(getattr(module, cls_name)).get(name[len(prefix) + 1:])
            if inspect.isfunction(method) or isinstance(method, classmethod):
                return True
    return False


def test_function_metrics_name_traced_functions():
    class_prefix = _constant("instrument.py", "CLASS_PREFIX")
    names = [name for name, _ in _constant("worker.py", "FUNCTION_METRICS")]
    assert len(names) > 20
    # `agent.act` has read zero since `CategoricalQAgent.act` was removed;
    # the bench's metric list is to drop or rename it.
    assert {n for n in names if not _traced(n, class_prefix)} == {"agent.act"}


def test_config_builders_exist():
    cfg = config.Config()
    assert config.build_grid(cfg) is cfg.grid
    assert config.build_platform(cfg) is cfg.platform


def test_offer_record_takes_the_selftest_keywords():
    offer = next(node for node in _tree("selftest.py").body
                 if isinstance(node, ast.FunctionDef) and node.name == "_offer")
    [call] = [node for node in ast.walk(offer) if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "OfferRecord"]
    keywords = [k.arg for k in call.keywords]
    assert "action" in keywords
    inspect.signature(sim.OfferRecord).bind(**dict.fromkeys(keywords))


def test_demonstrations_have_transitions_with_obs_and_reward():
    cfg = config.Config()
    grid, params = config.build_grid(cfg), config.build_platform(cfg)
    records = generate_synthetic_log(
        SyntheticLogSpec(driver_count=2, days=2, offers_per_driver_day=4.0),
        grid, params, cfg.sim.speed_kmh, seed=5)
    trajectories = ingest.extract_demonstrations(records, params, grid)
    transitions = [t for traj in trajectories for t in traj.transitions]
    assert transitions
    for t in transitions:
        assert t.obs.shape == (sim.OBS_DIM,)
        assert isinstance(t.reward, float)
