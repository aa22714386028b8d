"""``refused``: expect a ``FlowReconError`` of one reason, as ``pytest.raises`` expects a type.

Where a reason covers several kinds of fault (``"shape"``, ``"level"``,
``"empty"``, ``"bad-params"``, ``"zero-total"``), a test also passes
``match``, a pattern of the message, so it tells the fault it expects from
the others of its reason.
"""

from contextlib import contextmanager

import pytest

from flowrecon.errors import FlowReconError


@contextmanager
def refused(reason, match=None):
    """A ``pytest.raises(FlowReconError, match=match)`` block whose error has ``reason``."""
    with pytest.raises(FlowReconError, match=match) as info:
        yield info
    assert info.value.reason == reason, info.value
