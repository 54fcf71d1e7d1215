"""Shared fixtures for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest

import cpesim


@pytest.fixture(scope="session")
def cli_env():
    """Environment for a child `python -m cpesim.cli`.

    The CLI tests run the child in a temporary directory, where a relative
    PYTHONPATH such as `src` no longer resolves. Putting the absolute
    directory that holds the imported `cpesim` first makes the child run the
    same package as this process, whether it comes from `src/` or an install.
    """
    package_root = str(Path(cpesim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    return env


@pytest.fixture(scope="session")
def density():
    """Plan densities by kind, as `density(grid, kind)`.

    "uniform" is 1; "random" is uniform on [0.1, 2.0) (seed 3);
    "near-vacuum" is 1 with 30 % of the cells at 1e-3; "wave" is
    1 + 0.999 sin(2 pi x1) cos(2 pi x2), a smooth wave near vacuum.
    """

    def make(g, kind):
        rng = np.random.default_rng(3)
        if kind == "uniform":
            return np.ones((g.nx1, g.nx2))
        if kind == "random":
            return rng.uniform(0.1, 2.0, (g.nx1, g.nx2))
        if kind == "near-vacuum":
            xi = np.ones((g.nx1, g.nx2))
            xi[rng.random(xi.shape) < 0.3] = 1e-3
            return xi
        x1, x2 = g.meshgrid_2d()
        return 1.0 + 0.999 * np.sin(2.0 * np.pi * x1) * np.cos(2.0 * np.pi * x2)

    return make
