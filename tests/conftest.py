"""Shared fixtures: trained models and common hardware objects.

The "fast" reference model (1500 digits, 4 epochs) trains in a few
seconds and is cached on disk, so the integration tests stay quick
after the first run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.learning.pretrained import ReferenceModel, get_reference_model
from repro.sram.electrical import TransposedPortModel
from repro.sram.readport import ReadPortModel
from repro.tile.backends import backend_names


@pytest.fixture(params=backend_names())
def backend(request) -> str:
    """Every registered engine-backend name, one at a time.

    Parametrized straight off the registry, so registering a new
    backend automatically runs it through every test using this
    fixture (the conformance suite's closure property).  Tests using
    it are auto-marked ``backend`` — see pytest.ini and
    ``pytest_collection_modifyitems`` below.
    """
    return request.param


@pytest.fixture()
def result_store(tmp_path):
    """A fresh, empty result store in this test's tmp directory.

    Tests using it are auto-marked ``store`` — see pytest.ini and
    ``pytest_collection_modifyitems`` below (the ``backend`` pattern).
    """
    from repro.store import ResultStore

    store = ResultStore(tmp_path / "store.sqlite")
    yield store
    store.close()


class ServerKind:
    """Builds one of the two servers over the shared serving core."""

    def __init__(self, name: str) -> None:
        self.name = name

    @property
    def flush_span(self) -> str:
        """The span the executor records once a batch has been served."""
        return "serve.flush" if self.name == "in-process" else "fleet.flush"

    def __call__(self, registry, **kwargs):
        from repro.serve import FleetServer, InferenceServer

        if self.name == "in-process":
            return InferenceServer(registry, **kwargs)
        return FleetServer(registry, n_workers=1, **kwargs)


@pytest.fixture(params=[
    "in-process",
    pytest.param("fleet", marks=pytest.mark.multiprocess),
])
def serving(request) -> ServerKind:
    """Each server (``InferenceServer``, one-worker ``FleetServer``).

    The server-contract suite runs once per server through this
    fixture; tests using it are auto-marked ``serve`` (the ``backend``
    pattern), and the fleet's runs ``multiprocess``.
    """
    return ServerKind(request.param)


def pytest_collection_modifyitems(items) -> None:
    for item in items:
        fixtures = getattr(item, "fixturenames", ())
        if "backend" in fixtures:
            item.add_marker(pytest.mark.backend)
        if "result_store" in fixtures:
            item.add_marker(pytest.mark.store)
        if "serving" in fixtures:
            item.add_marker(pytest.mark.serve)


@pytest.fixture(scope="session")
def fast_model() -> ReferenceModel:
    """Small trained network + dataset (cached across the session)."""
    return get_reference_model(quality="fast", seed=42)


@pytest.fixture(scope="session")
def transposed_model() -> TransposedPortModel:
    return TransposedPortModel()


@pytest.fixture(scope="session")
def read_port_model() -> ReadPortModel:
    return ReadPortModel()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
