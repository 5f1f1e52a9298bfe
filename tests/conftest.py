import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mafoliation import PolyPotential
from mafoliation.cli import bundled_corpus_dir
from mafoliation.potential import parse_potential_file
from helpers import generated_potentials


@pytest.fixture(scope="session")
def ball2():
    """|z1|^2 + |z2|^2"""
    return PolyPotential(2, {((1, 0), (1, 0)): 1, ((0, 1), (0, 1)): 1})


@pytest.fixture(scope="session")
def ball3():
    """|z1|^2 + |z2|^2 + |z3|^2"""
    return PolyPotential(
        3,
        {
            ((1, 0, 0), (1, 0, 0)): 1,
            ((0, 1, 0), (0, 1, 0)): 1,
            ((0, 0, 1), (0, 0, 1)): 1,
        },
    )


@pytest.fixture(scope="session")
def weighted24():
    """|z1|^2 + |z2|^4, weights (1, 1/2)"""
    return PolyPotential(2, {((1, 0), (1, 0)): 1, ((0, 2), (0, 2)): 1})


@pytest.fixture(scope="session")
def square_norm():
    """(|z1|^2 + |z2|^2)^2 expanded"""
    return PolyPotential(
        2, {((2, 0), (2, 0)): 1, ((1, 1), (1, 1)): 2, ((0, 2), (0, 2)): 1}
    )


@pytest.fixture(scope="session")
def quartic_diag():
    """|z1|^4 + |z2|^4"""
    return PolyPotential(2, {((2, 0), (2, 0)): 1, ((0, 2), (0, 2)): 1})


@pytest.fixture(scope="session")
def quartic_mixed():
    """|z1|^4 + |z2|^4 + (z1^3 zbar2 + zbar1^3 z2)/2 : degree-4 but not (2,2)"""
    return PolyPotential(
        2,
        {
            ((2, 0), (2, 0)): 1,
            ((0, 2), (0, 2)): 1,
            ((3, 0), (0, 1)): 0.5,
            ((0, 1), (3, 0)): 0.5,
        },
    )


@pytest.fixture(scope="session")
def nonma():
    """|z1|^2 + |z2|^2 + |z1|^2 |z2|^2 : plurisubharmonic but not Monge-Ampere"""
    return PolyPotential(
        2, {((1, 0), (1, 0)): 1, ((0, 1), (0, 1)): 1, ((1, 1), (1, 1)): 1}
    )


@pytest.fixture(scope="session")
def ma_examples(ball2, ball3, weighted24, square_norm, quartic_diag):
    return {
        "ball2": ball2,
        "ball3": ball3,
        "weighted24": weighted24,
        "square_norm": square_norm,
        "quartic_diag": quartic_diag,
    }


@pytest.fixture(scope="session")
def all_examples(ma_examples, quartic_mixed, nonma):
    out = dict(ma_examples)
    out["quartic_mixed"] = quartic_mixed
    out["nonma"] = nonma
    return out


@pytest.fixture(scope="session")
def bundled_and_generated():
    """The 7 bundled potentials and the 6 generated kinds of the benchmark."""
    out = {f.stem: parse_potential_file(f) for f in sorted(bundled_corpus_dir().glob("*.pot"))}
    out.update(generated_potentials(7))
    return out
