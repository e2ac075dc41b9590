import contextlib
import io
import pathlib
import re

import pytest

import scalelab

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# Every public name of the package, by the submodule that defines it.
EXPORTED = {
    "analytic": """ce_of_optimal_ne exponent_curve local_loss_exponent local_param_exponent
        loss_compute_exponent_total optimal_nt
        param_exponent_large_scale_limit param_exponent_small_scale_limit
        transition_point""",
    "fitting": "PowerLawFit fit_power_law fit_power_law_with_offset sum_squared_error",
    "frontier": """Curves Frontier FrontierPoint TrainingCurve bracketing_token_schedule
        extract_frontier fit_loss_scaling fit_param_scaling kaplan_size_grid
        read_frontier_csv simulate_curves size_grid write_curves_csv write_frontier_csv""",
    "lossmodel": """CHINCHILLA EPOCH SPEC_CATALOG LossSpec load_loss_spec
        loss_nd loss_ne_ce loss_nt_ct resolve_spec""",
    "params": """DEFAULT_EMBED_MAP DEFAULT_OMEGA EmbedMap EmbedMapFit ParamSplit
        bundled_config_path count_params fit_embed_map load_model_configs
        nonembed_from_total omega_from_shape total_from_nonembed""",
}
EXPORTED_NAMES = [(module, name) for module, names in EXPORTED.items()
                  for name in names.split()]


_LOADED = 'print(sorted(m for m in sys.modules if m.partition(".")[0] == "scalelab"))'


def _loaded_after(fresh_python, code):
    """The scalelab modules a new interpreter holds after running ``code``."""
    proc = fresh_python("-c", f"import sys\n{code}\n{_LOADED}")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_loads_no_submodule(fresh_python):
    assert _loaded_after(fresh_python, "import scalelab") == "['scalelab']"


@pytest.mark.parametrize("module", ["scalelab", "scalelab.__main__"])
def test_import_loads_no_numpy_and_sets_nothing(fresh_python, module):
    """Importing the entry module runs no command: OPENBLAS_NUM_THREADS is set and the
    collector switched off only by ``run()``, before numpy loads."""
    proc = fresh_python("-c", f"import gc, os, sys, {module}\n"
                        "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'),"
                        " gc.get_freeze_count(), gc.isenabled())",
                        env={"OPENBLAS_NUM_THREADS": None})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "None", "0", "True"]


def test_from_import_loads_only_the_defining_module(fresh_python):
    loaded = _loaded_after(fresh_python, "from scalelab import PowerLawFit")
    assert loaded == "['scalelab', 'scalelab.fitting']"


def test_exponent_curve_loads_no_frontier(fresh_python):
    """The closed forms sample their own grid: they once imported frontier for it."""
    loaded = _loaded_after(fresh_python, "import scalelab.analytic\nscalelab.analytic."
                           "exponent_curve(scalelab.EPOCH, scalelab.DEFAULT_EMBED_MAP)")
    assert loaded == ("['scalelab', 'scalelab.analytic', 'scalelab.fitting', "
                      "'scalelab.lossmodel', 'scalelab.params']")


@pytest.mark.parametrize("module, name", EXPORTED_NAMES)
def test_exported_name_is_its_modules_object(module, name):
    submodule = getattr(scalelab, module)
    assert name in submodule.__all__
    assert getattr(scalelab, name) is getattr(submodule, name)


def test_all_and_dir_list_every_exported_name():
    names = {name for _, name in EXPORTED_NAMES}
    assert sorted(scalelab.__all__) == sorted(names)
    assert names | set(EXPORTED) <= set(dir(scalelab))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'fit_kaplan_form'"):
        scalelab.fit_kaplan_form
    assert not hasattr(scalelab, "THIRD")


def test_every_python_block_of_the_readme_prints_what_it_says():
    """Each ```python block of README.md runs, and each number it prints rounds to the
    ``# ~value`` beside the print call, at that value's decimals."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert blocks
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        said = [value for line in block.splitlines() if line.startswith("print(")
                for value in re.findall(r"# ~(-?[\d.]+)", line)]
        printed = out.getvalue().split()
        assert len(printed) == len(said)
        for got, value in zip(printed, said):
            assert round(float(got), len(value.partition(".")[2])) == float(value), got
