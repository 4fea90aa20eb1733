"""Manufactured solutions shared by the test modules.

All builders return (spinor, potential, kappa) triples that satisfy the
coupled system by construction: force-free waves, superpositions of them,
and gauge transforms with known potential shifts, of a degenerate spinor too.
"""

import math

import numpy as np

from diracinv import catalog, exprlang
from diracinv.fields import SpinorField
from diracinv.inversion import FourPotential, gauge_transform

SMOOTH_BASIS = ("x0", "x1", "x2", "x3", "x0*x2", "x1*x3",
                "sin(x1 + x3)", "cos(x2)", "sin(x0)")


def random_gauge_function(rng) -> tuple[exprlang.Expr, dict]:
    """A random real smooth function as a parameterized expression."""
    names = [f"g{k}" for k in range(len(SMOOTH_BASIS))]
    text = " + ".join(f"{n}*{term}" for n, term in zip(names, SMOOTH_BASIS))
    params = {n: complex(round(rng.uniform(-0.6, 0.6), 4)) for n in names}
    return exprlang.parse(text), params


def rest_wave_field(kappa: float) -> SpinorField:
    return SpinorField.from_strings(["exp(-i*kappa*x0)", "0", "0", "0"],
                                    {"kappa": kappa})


def gauge_rest_pair(kappa: float, rng) -> tuple[SpinorField, FourPotential, float]:
    """Gauge transform of the resting wave with a random smooth function."""
    f, params = random_gauge_function(rng)
    spinor, shift = gauge_transform(rest_wave_field(kappa), f, params)
    return spinor, FourPotential.zero().plus(shift), kappa


def superposition_field(kappa: float) -> SpinorField:
    """Sum of three force-free waves; its g5 g4 bilinear is nonzero.

    Momenta k1 and k3 excite different component pairs so the spinor is not
    collinear with any single wave.
    """
    k3, k1 = 0.75, 0.4
    w3 = math.sqrt(kappa ** 2 + k3 ** 2)
    w1 = math.sqrt(kappa ** 2 + k1 ** 2)
    params = {
        "kap": kappa, "k3": k3, "k1": k1, "w3": w3, "w1": w1,
        "u3": w3 - kappa, "u1": w1 - kappa,
    }
    return SpinorField.from_strings([
        "exp(-i*kap*x0) + k3*exp(i*(k3*x3 - w3*x0)) + k1*exp(i*(k1*x1 - w1*x0))",
        "0",
        "u3*exp(i*(k3*x3 - w3*x0))",
        "u1*exp(i*(k1*x1 - w1*x0))",
    ], params)


def gauge_superposition_pair(kappa: float, rng) -> tuple[SpinorField, FourPotential, float]:
    f, params = random_gauge_function(rng)
    spinor, shift = gauge_transform(superposition_field(kappa), f, params)
    return spinor, FourPotential.zero().plus(shift), kappa


def gauge_degenerate_pair(kappa: float, rng) -> tuple[SpinorField, FourPotential, float]:
    """Gauge transform of the catalog's degenerate example: degenerate, with a real potential."""
    f, params = random_gauge_function(rng)
    spinor, shift = gauge_transform(catalog.build("degenerate_example", {"kappa": kappa}).spinor,
                                    f, params)
    return spinor, FourPotential.zero().plus(shift), kappa
