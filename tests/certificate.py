"""Which path each use of the float32 certificate took, seen by patching it where it is bound."""

import contextlib
from unittest import mock


@contextlib.contextmanager
def certificate_paths(module, force_float64=False):
    """The outcomes of ``module._exact_float32`` in the block: True where it certified.

    With ``force_float64`` it certifies nothing, so every caller takes its
    float64 path.
    """
    taken = []
    real = module._exact_float32

    def spy(E):
        F = None if force_float64 else real(E)
        taken.append(F is not None)
        return F

    with mock.patch.object(module, "_exact_float32", spy):
        yield taken
