"""gnmh binds scipy's LAPACK and BLAS routines without importing scipy or
``scipy.linalg``.

Each test runs a fresh interpreter, because what a process has imported
is global state that an earlier test in this process would already have set.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_sample_and_jtest_do_not_import_scipy_linalg(tmp_path):
    # nor scipy itself, whose package init gnmh does not run
    done = _run(f"""
        import sys
        import gnmh, gnmh.cli
        out = {str(tmp_path)!r}
        assert gnmh.cli.main(["sample", "--example", "expseries", "--backoff",
                              "dynamic", "--max-steps", "2", "--samples", "50",
                              "--out-dir", out]) == 0
        assert gnmh.cli.main(["jtest", "--example", "quickstart", "-N", "5"]) == 0
        assert "scipy.linalg" not in sys.modules, "scipy.linalg was imported"
        assert "scipy" not in sys.modules, "scipy was imported"
        assert {{"scipy.linalg._flapack", "scipy.linalg._fblas"}} <= set(sys.modules)
    """)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "chain.csv").exists()


@pytest.mark.parametrize("first", ["gnmh", "scipy.linalg"])
def test_lapack_routines_are_scipys_in_either_import_order(first):
    second = "scipy.linalg" if first == "gnmh" else "gnmh"
    done = _run(f"""
        import sys
        import numpy as np
        import {first}
        import {second}
        import gnmh.gaussian
        import scipy.linalg
        from scipy.linalg import blas, lapack

        assert gnmh.gaussian.dpotrf is lapack.dpotrf
        assert gnmh.gaussian.dtrtrs is lapack.dtrtrs
        assert gnmh.gaussian.dsyrk is blas.dsyrk
        assert sys.modules["scipy.linalg._fblas"].dsyrk is blas.dsyrk
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        chol = scipy.linalg.cholesky(a, lower=True)
        assert np.allclose(chol @ chol.T, a)
        u = scipy.linalg.solve_triangular(chol, [1.0, 2.0], lower=True)
        assert np.allclose(chol @ u, [1.0, 2.0])
        (potrf,) = scipy.linalg.get_lapack_funcs(("potrf",), (a,))
        assert potrf is lapack.dpotrf
        (syrk,) = scipy.linalg.get_blas_funcs(("syrk",), (a,))
        assert syrk is blas.dsyrk
        assert np.array_equal(np.tril(blas.dsyrk(1.0, a, lower=1)), np.tril(a @ a.T))
    """)
    assert done.returncode == 0, done.stderr


def test_missing_lapack_extension_is_an_import_error_naming_the_directory(tmp_path):
    done = _run(f"""
        import scipy
        scipy.__path__ = [{str(tmp_path)!r}]
        try:
            import gnmh
        except ImportError as exc:
            assert {str(tmp_path)!r} in str(exc), str(exc)
            assert "scipy>=1.13" in str(exc), str(exc)
        else:
            raise AssertionError("import gnmh did not fail")
    """)
    assert done.returncode == 0, done.stderr


def test_missing_blas_extension_is_an_import_error_naming_the_directory(tmp_path):
    # the LAPACK extension already loaded, as gnmh's loader registers it,
    # and a scipy directory without the BLAS one
    done = _run(f"""
        import importlib.machinery
        import importlib.util
        import os
        import sys
        import scipy
        name = "scipy.linalg._flapack"
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(scipy.__path__[0], "linalg")])
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
        scipy.__path__ = [{str(tmp_path)!r}]
        try:
            import gnmh
        except ImportError as exc:
            assert "_fblas" in str(exc) and {str(tmp_path)!r} in str(exc), str(exc)
            assert "scipy>=1.13" in str(exc), str(exc)
        else:
            raise AssertionError("import gnmh did not fail")
    """)
    assert done.returncode == 0, done.stderr


def test_missing_scipy_is_an_import_error_naming_the_floor():
    done = _run("""
        import sys
        sys.modules["scipy"] = None
        try:
            import gnmh
        except ImportError as exc:
            assert "scipy>=1.13" in str(exc), str(exc)
        else:
            raise AssertionError("import gnmh did not fail")
    """)
    assert done.returncode == 0, done.stderr


def test_extension_load_failing_before_scipy_init_is_retried_after_it():
    # scipy's package init may put the libraries its wheel bundles on the
    # loader's path, so a load that fails before it runs is tried again
    # after it; here every extension load fails until scipy is imported
    done = _run("""
        import importlib.machinery
        import sys
        import numpy

        loader = importlib.machinery.ExtensionFileLoader
        exec_module = loader.exec_module
        failed = []

        def exec_unless_scipy_missing(self, module):
            if "scipy" not in sys.modules:
                failed.append(module.__name__)
                raise ImportError(f"{module.__name__}: library not found")
            return exec_module(self, module)

        loader.exec_module = exec_unless_scipy_missing
        import gnmh
        import gnmh.gaussian
        assert failed == ["scipy.linalg._flapack"], failed
        assert "scipy" in sys.modules
        import scipy.linalg
        from scipy.linalg import blas, lapack
        assert gnmh.gaussian.dpotrf is lapack.dpotrf
        assert gnmh.gaussian.dtrtrs is lapack.dtrtrs
        assert gnmh.gaussian.dsyrk is blas.dsyrk
    """)
    assert done.returncode == 0, done.stderr
