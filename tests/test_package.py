"""``import cmkit`` is lazy, and its names are the ones an eager import bound."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmkit

# What ``from cmkit import *`` bound when the package imported every module
# eagerly: the five submodules and, by defining module, their public names.
EAGER_EXPORTS = {
    "linalg": ["AffineSolution", "Field", "Matrix", "RATIONAL", "ShapeError", "SingularMatrixError", "char_poly",
               "commutator", "complex_field", "eval_matrix_poly", "kernel_basis", "rank", "solve_affine"],
    "weyl": ["CechRanks", "CutoffExhausted", "MicrolocalElement", "WeylElement", "ZeroElementError",
             "cech_graded_ranks", "d_inv", "d_pow", "embed", "micro", "micro_mul", "order", "weyl_element",
             "weyl_mul", "x_pow"],
    "adhm": ["CMQuadruple", "HilbertIdeal", "cm_residual", "conjugate", "hilbert_ideal", "is_cm_point", "is_stable",
             "moment_std", "poly_str", "sample_cm", "word_invariants"],
    "koszul": ["FiberSolution", "FramedTorsionSheaf", "InvalidKoszulTriple", "KoszulTriple", "NotCMPoint",
               "PolyCovector", "apply_homotopy", "check_square", "framed_poly_action", "from_cm", "normalize",
               "normalizing_homotopy", "solve_cm_fiber", "torsor_action"],
    "moduli": ["INCONCLUSIVE", "SupportReport", "cm_support_check", "endomorphisms", "factor_str",
               "framing_surjective", "is_indecomposable", "support"],
}
STAR_NAMES = sorted([*EAGER_EXPORTS, *(name for names in EAGER_EXPORTS.values() for name in names)])


def test_star_import_binds_the_eager_names():
    namespace: dict = {}
    exec("from cmkit import *", namespace)
    assert len(STAR_NAMES) == 66
    assert sorted(set(namespace) - {"__builtins__"}) == STAR_NAMES


@pytest.mark.parametrize("module", EAGER_EXPORTS)
def test_each_name_is_its_defining_modules_object(module):
    defining = importlib.import_module(f"cmkit.{module}")
    assert getattr(cmkit, module) is defining
    for name in EAGER_EXPORTS[module]:
        assert getattr(cmkit, name) is getattr(defining, name), name


def test_dir_lists_every_name():
    assert set(STAR_NAMES) | {"__version__"} <= set(dir(cmkit))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cmkit.no_such_name


def test_bare_import_loads_no_submodule():
    script = (
        "import json, sys, types\n"
        "import cmkit\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'cmkit')\n"
        "print(json.dumps([loaded, isinstance(cmkit.koszul, types.ModuleType), cmkit.__version__]))\n"
    )
    src = str(Path(cmkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["cmkit"], True, cmkit.__version__]
