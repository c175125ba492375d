import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn) records the args of every call to fn until the test ends.

    fn is replaced in every loaded latticejost module that binds it, so calls
    through any import path are counted.
    """

    def patch(fn) -> list:
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("latticejost") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
        return calls

    return patch


@pytest.fixture
def eigenvector_c2():
    """eigenvector_c2(values, lam, alpha, M=800): c^2 from the truncation's eigenvector.

    The M x M truncation's normalized eigenvector psi at the eigenvalue
    nearest lam equals c f_n up to sign, and f_b = alpha^b, so
    c^2 = (psi_b / alpha^b)^2: an independent route to the norming
    constant, accurate to about |alpha|^(2M) past rounding.
    """
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    def c2(values, lam, alpha, M=800):
        diag = np.full(M, 2.0)
        diag[: len(values)] += np.asarray(values, dtype=float)
        half = 1e-8 * max(1.0, abs(lam))
        w, vecs = eigh_tridiagonal(
            diag, np.full(M - 1, -1.0), select="v", select_range=(lam - half, lam + half)
        )
        assert len(w) == 1, f"{len(w)} eigenvalues within {half:.1e} of {lam}"
        return float((vecs[len(values) - 1, 0] / alpha ** len(values)) ** 2)

    return c2
