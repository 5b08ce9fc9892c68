import numpy as np
import pytest

from focalis import focal, geomodel, roots, spectral, transport
from focalis.algebras import load_algebra

# Each factory builds a fresh instance of a frozen dataclass that holds arrays;
# two calls give equal fields, which a field-wise == could not compare.
FACTORIES = {
    "AlgebraPath": lambda: transport.AlgebraPath(np.zeros((3, 2, 2), dtype=complex)),
    "GaugePath": lambda: transport.GaugePath(np.repeat(np.eye(2, dtype=complex)[None], 3, axis=0)),
    "SpectralData": lambda: spectral.SpectralData([1.0], [2], [0.5], [1]),
    "LieAlgebraBasis": lambda: load_algebra("su2"),
    "RestrictedRootData": lambda: roots.restricted_root_decomposition(load_algebra("su3"), "conj"),
    "ModelSubmanifold": lambda: geomodel.build_model(geomodel.default_config(), 2, 0),
    "EigenGrid": lambda: focal.EigenGrid(((1.0, 0.5, 2), (0.0, 0.0, 1)), label="x0"),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_equality_is_identity(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert a == a and not a != a
    assert a != b and not a == b
    assert len({a, a, b}) == 2
