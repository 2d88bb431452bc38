"""Test-side recorder for the agent that ``harness.run_seed`` trains.

``run_seed`` builds its agent inside and returns only the evaluation
rows; the tests that read the trained agent (its ``dhat_history``) keep
it through this recorder, as the benchmark's ``penfac-pointmass``
workload does.
"""

import contextlib
from unittest import mock

from detac import harness


@contextlib.contextmanager
def kept_agents():
    """Replace ``harness.make_agent`` for the ``with`` block by a wrapper
    that appends ``(args, agent)`` of each call to the list it yields."""
    calls = []
    make_agent = harness.make_agent

    def keep(*args):
        calls.append((args, make_agent(*args)))
        return calls[-1][1]

    with mock.patch.object(harness, "make_agent", keep):
        yield calls
