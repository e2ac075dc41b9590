import pytest

import scalelab

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
    "params": """DEFAULT_EMBED_MAP DEFAULT_OMEGA EmbedMap EmbedMapFit ModelShape ParamSplit
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


def test_from_import_loads_only_the_defining_module(fresh_python):
    loaded = _loaded_after(fresh_python, "from scalelab import PowerLawFit")
    assert loaded == "['scalelab', 'scalelab.fitting']"


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
