"""Fixtures shared by the test modules."""

import types

import pytest

from hopfon import devmaps, verify


@pytest.fixture
def instrument_kernel(monkeypatch):
    """`instrument_kernel(**wrappers)` patches `verify.map_kernel` so that
    each check gets a new kernel of its map, instrumented, and returns the
    log: `kernels`, each kernel built, and `point`, `stencil`, each result of
    that reader of those kernels.  A wrapper named after a reader replaces
    the reader by wrapper(reader)."""

    def instrument(**wrappers):
        log = types.SimpleNamespace(kernels=[], point=[], stencil=[])

        def recorded(results, reader):
            def read(*args):
                results.append(reader(*args))
                return results[-1]

            return read

        def build(d):
            kern = devmaps.map_kernel(d)
            kern.point, kern.stencil = recorded(log.point, kern.point), recorded(log.stencil, kern.stencil)
            for name, wrap in wrappers.items():
                setattr(kern, name, wrap(getattr(kern, name)))
            log.kernels.append(kern)
            return kern

        monkeypatch.setattr(verify, "map_kernel", build)
        return log

    return instrument
