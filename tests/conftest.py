import pytest

from tmsim import cli
from tmsim.cli import main


class _Stop(Exception):
    """Ends a command once its call to the patched function is recorded."""


@pytest.fixture(scope="session")
def qpg_map_inputs():
    """`inputs(*flags)` gives the arguments and keyword arguments that
    `tmsim qpg map` with the given flags passes to `build_mapping`, at its
    default 512 x 512 grids; the command stops there."""

    def inputs(*flags):
        calls = []

        def record(*args, **kwargs):
            calls.append((args, kwargs))
            raise _Stop

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "build_mapping", record)
            with pytest.raises(_Stop):
                main(["qpg", "map", *flags])
        (call,) = calls
        return call

    return inputs
