"""The bytes of the output rows, pinned across commits.

``tests/test_workload_generator.py`` pins the generator's captures and
the differential suites hold each production layer to its per-record
oracle — but a refactor that changed a production layer and its oracle
the same way would pass both. These digests pin what the pipeline
writes: each golden scenario capture (at ``GOLDEN_SEED``) and one small
generated capture, replayed through ``replay_capture`` with the default
configuration, must produce a rows file with exactly this SHA-256.

A change that means to alter the output format updates the digests in
the same commit and says why.
"""

import hashlib
import io

import pytest

from repro.replay.runner import replay_capture
from repro.replay.scenarios import GOLDEN_SEED, SCENARIOS
from repro.workloads.generator import GeneratorParams, generate_capture

#: sha256 of the rows ``replay_capture`` writes for each golden scenario.
SCENARIO_ROWS = {
    "bursts": "8d14e8dc267638c676619e5e4b2be0009aa11a0d62cb4ecbfd4e1b8c886bc74d",
    "cname-churn": "bfd52ab39a77bd3a0025f1e1cc88c8f3a11d68e47a73fec5c4a5ec18a326aa26",
    "malformed": "bdf9297a778c569572119b08d128a2dcf42eb4e4d52447a86f7c8f7deb38e9db",
    "template-reannounce": "956eb40994eac06ccedf719d4ce4868aa80182fe76b0af44d9724de75396e13f",
    "ttl-expiry": "760fc86d812c5f450c711cae118105b1c65471274580f09134d661f2e5cfacc9",
    "two-site": "144473b5fd46be122a16a4ac7aca8f6b93f9e6835268d29d9585c6b5e76cd179",
}

#: A generated capture with v4 and v6 flows: about 10.7 K rows.
GENERATED = GeneratorParams(seed=23, clients=3000, duration=60.0, aaaa_fraction=0.3)
GENERATED_ROWS = "fd59ac1b4971f72196e4a29f304b19f3571f79693816a9a252b4d999c6411af2"


def _rows_digest(capture) -> str:
    sink = io.StringIO()
    replay_capture(capture, sink=sink)
    return hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest()


def test_every_scenario_is_pinned():
    assert sorted(SCENARIO_ROWS) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIO_ROWS))
def test_scenario_rows_match_pinned_digest(name):
    assert _rows_digest(SCENARIOS[name](GOLDEN_SEED)) == SCENARIO_ROWS[name]


def test_generated_rows_match_pinned_digest(tmp_path):
    path = str(tmp_path / "generated.fdc")
    generate_capture(GENERATED, path)
    assert _rows_digest(path) == GENERATED_ROWS
