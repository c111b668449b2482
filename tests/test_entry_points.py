"""The named block entry points that perfbench traces, and the one-path rule.

perfbench times ``layer.simple_repgraph_forward``,
``layer.bottleneck_repgraph_forward``, ``variants.grid_repgraph_forward``,
``variants.group_repgraph_forward`` and ``nonlocal_block.nonlocal_forward``
by name.  Each takes exactly the arguments perfbench passes and must be
``repgraph_forward`` on the ``LayerConfig`` it stands for, byte for byte.
Every other caller builds a block through ``LayerConfig`` +
``init_layer_params`` and runs it through ``repgraph_forward``, so only the
wrappers' own modules name them.
"""

import inspect
import pathlib
import re
from dataclasses import replace

import numpy as np
import pytest

import repgraph
from repgraph import LayerConfig, Rng, init_layer_params, layer, nonlocal_block, variants
from repgraph.layer import param_arrays, repgraph_forward

# Every name that describes or runs a block beside LayerConfig and repgraph_forward.
WRAPPERS = (
    "simple_repgraph_forward",
    "bottleneck_repgraph_forward",
    "grid_repgraph_forward",
    "group_repgraph_forward",
    "nonlocal_forward",
    "GridConfig",
    "GroupConfig",
    "init_nonlocal_params",
    "affinity_matrix",
)
# The modules that define the wrappers.
OWN_MODULES = ("layer.py", "variants.py", "nonlocal_block.py")

SRC = pathlib.Path(repgraph.__file__).parent
SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"

SIMPLE = LayerConfig(c=6, cp=4, s=3, variant="simple")
BOTTLENECK = LayerConfig(c=6, cp=4, s=3, variant="bottleneck")

# (case, config the entry point stands for, call of the entry point)
_CASES = [
    ("simple", SIMPLE, lambda x, p: layer.simple_repgraph_forward(x, p, SIMPLE)),
    ("bottleneck", BOTTLENECK, lambda x, p: layer.bottleneck_repgraph_forward(x, p, BOTTLENECK)),
    ("grid", replace(BOTTLENECK, gs=2),
     lambda x, p: variants.grid_repgraph_forward(x, p, BOTTLENECK, variants.GridConfig(2))),
    ("group", replace(BOTTLENECK, groups=2),
     lambda x, p: variants.group_repgraph_forward(x, p, BOTTLENECK, variants.GroupConfig(2))),
    ("nonlocal-sum", LayerConfig(c=6, cp=4, variant="nonlocal"),
     lambda x, p: nonlocal_block.nonlocal_forward(x, p)),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("cfg,entry", [case[1:] for case in _CASES],
                         ids=[case[0] for case in _CASES])
def test_named_entry_point_is_repgraph_forward_on_its_config(cfg, entry, dtype):
    x = Rng(31).tensor((2, 6, 5, 4), dtype=dtype)
    params = init_layer_params(cfg, Rng(32), dtype=dtype)
    want = repgraph_forward(x, params, cfg).data
    got = entry(x, params).data
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_init_nonlocal_params_is_init_layer_params(dtype):
    cfg = LayerConfig(c=6, cp=4, variant="nonlocal")
    got = param_arrays(nonlocal_block.init_nonlocal_params(6, 4, rng=Rng(33), dtype=dtype))
    want = param_arrays(init_layer_params(cfg, Rng(33), dtype=dtype))
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype == dtype
        assert got[name].tobytes() == want[name].tobytes(), name


def test_entry_points_take_only_the_arguments_perfbench_passes():
    entries = (layer.simple_repgraph_forward, layer.bottleneck_repgraph_forward,
               variants.grid_repgraph_forward, variants.group_repgraph_forward,
               nonlocal_block.nonlocal_forward, nonlocal_block.init_nonlocal_params)
    assert {f.__name__: list(inspect.signature(f).parameters) for f in entries} == {
        "simple_repgraph_forward": ["x", "params", "cfg"],
        "bottleneck_repgraph_forward": ["x", "params", "cfg"],
        "grid_repgraph_forward": ["x", "params", "cfg", "grid"],
        "group_repgraph_forward": ["x", "params", "cfg", "grp"],
        "nonlocal_forward": ["x", "params"],
        "init_nonlocal_params": ["c", "cp", "rng", "dtype"],
    }


def test_package_exports_one_block_entry_point():
    assert [name for name in WRAPPERS if hasattr(repgraph, name)] == ["nonlocal_forward"]
    assert repgraph.repgraph_forward is repgraph_forward


def test_only_the_wrappers_own_modules_name_a_wrapper():
    files = sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    assert SRC / "layer.py" in files and any(f.parent == SCRIPTS for f in files)
    pattern = re.compile(r"\b(" + "|".join(WRAPPERS) + r")\b")
    found = []
    for path in files:
        if path.parent == SRC and path.name in OWN_MODULES:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            for name in pattern.findall(line):
                # The package keeps its nonlocal_forward export for perfbench.
                if (path.parent, path.name, name) != (SRC, "__init__.py", "nonlocal_forward"):
                    found.append(f"{path.relative_to(path.parent.parent)}:{lineno}: {name}")
    assert found == []
