"""Fixtures shared across test modules."""

import functools

import pytest

from oscqgt.qgt import ParameterSpace, assemble


@pytest.fixture(scope="session")
def assembled():
    """assemble(ParameterSpace.parse(model), order), built once per session
    for each (model, order): the golden file and the Rayleigh-Schrodinger
    oracle check the same tensors."""
    return functools.cache(lambda model, order: assemble(ParameterSpace.parse(model), order))
