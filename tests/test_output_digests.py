"""The pipeline's outputs equal the committed digests (see ``output_digests``).

A change that makes a fixed run return another plan, trace or record fails
here, even when every agent count stays the same.  Such a change bumps
``OUTPUT_EPOCH`` and regenerates the file with
``PYTHONPATH=src python tests/output_digests.py --write``.

The digests hold for the scipy, numpy and HiGHS versions the file names.  On
a host with other versions, :func:`test_digests_match` is skipped with a
reason naming both, and only statuses and agent counts are compared.
"""

import pytest

import output_digests

from repro.experiments import OUTPUT_EPOCH


@pytest.fixture(scope="module")
def digests():
    stored = output_digests.load()
    assert stored is not None, "tests/output_digests.json is missing"
    return stored, output_digests.compute()


def test_digests_are_of_this_epoch(digests):
    stored, _ = digests
    assert stored["epoch"] == OUTPUT_EPOCH


def test_statuses_and_agent_counts_match(digests):
    stored, current = digests
    assert output_digests.differences(stored, current, fields=("status", "agents")) == []


def test_digests_match(digests):
    stored, current = digests
    if stored["versions"] != current["versions"]:
        pytest.skip(
            f"digests made with {stored['versions']}, this host has {current['versions']}: "
            "compared statuses and agent counts only"
        )
    assert output_digests.differences(stored, current) == []
