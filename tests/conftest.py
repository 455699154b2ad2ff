import numpy as np
import pytest
from scipy.sparse._compressed import _cs_matrix

from thmfrac import fem
from thmfrac.constitutive import MaterialParams


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def factorizations(monkeypatch):
    """The shapes of the operators factorized from here on, one per
    ``fem.FieldOperator.factorize`` call."""
    calls = []
    factorize = fem.FieldOperator.factorize

    def counted(self):
        calls.append(self.layout.shape)
        return factorize(self)

    monkeypatch.setattr(fem.FieldOperator, "factorize", counted)
    return calls


@pytest.fixture
def sparse_constructions(monkeypatch):
    """The class names of the scipy compressed (CSR/CSC) sparse matrices
    constructed from here on, one per construction."""
    built = []
    init = _cs_matrix.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_cs_matrix, "__init__", counted)
    return built


@pytest.fixture
def generic_params():
    """A fully-populated coupled material for property tests."""
    return MaterialParams(
        E=17e9, nu=0.2, alpha_m=0.6, phi_m=0.1, c_f=4.5e-10, mu_f=1e-4,
        perm_m=1e-16, alpha_s=8e-6, alpha_f=4e-4, lambda_s=3.0, lambda_f=0.5,
        c_ps=800.0, c_pf=4200.0, rho_s=2600.0, rho_f=1000.0, Gc=100.0,
        ell=0.02, k_res=1e-6, n_at=2, xi=1.0, s_stab=0.15,
        T0=383.15)
