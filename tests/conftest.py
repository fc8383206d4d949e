import pytest

from factlab import linalg
from factlab.families import (
    FamilySpec,
    gen_ci_nonfactorial,
    gen_double_solid_nonfactorial,
    gen_hypersurface_nonfactorial,
)
from factlab.fields import GF


@pytest.fixture(scope="session")
def double_solid_r2():
    return gen_double_solid_nonfactorial(
        FamilySpec("double_solid_eq15", GF(101), seed=1, r=2)
    )


@pytest.fixture(scope="session")
def double_solid_r3():
    return gen_double_solid_nonfactorial(
        FamilySpec("double_solid_eq15", GF(101), seed=7, r=3)
    )


@pytest.fixture(scope="session")
def hypersurface_d3():
    return gen_hypersurface_nonfactorial(
        FamilySpec("hypersurface_xgyf", GF(31), seed=1, d=3)
    )


@pytest.fixture(scope="session")
def hypersurface_d4():
    return gen_hypersurface_nonfactorial(
        FamilySpec("hypersurface_xgyf", GF(31), seed=1, d=4)
    )


@pytest.fixture(scope="session")
def ci_22():
    return gen_ci_nonfactorial(FamilySpec("ci_plane", GF(11), seed=1, m=2, k=2))


@pytest.fixture(scope="session")
def ci_32():
    return gen_ci_nonfactorial(FamilySpec("ci_plane", GF(11), seed=1, m=3, k=2))


@pytest.fixture
def rref_stack_sizes(monkeypatch):
    """The number of matrices in each stack that linalg.rref_mod_p reduces
    during the test, one entry per call."""
    sizes = []
    reduce_stack = linalg.rref_mod_p

    def counting(stack, p):
        sizes.append(stack.shape[0])
        return reduce_stack(stack, p)

    monkeypatch.setattr(linalg, "rref_mod_p", counting)
    return sizes
