import hashlib

import spec
from repro.workloads.generator import GeneratorParams, generate_capture


def _digest(tmp_path, name, seed):
    path = tmp_path / name
    params = GeneratorParams(**dict(spec.capture_params("flow_heavy", seed), duration=0.3))
    report = generate_capture(params, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest(), report.flows


def test_one_seed_is_byte_identical_and_another_differs(tmp_path):
    first = _digest(tmp_path, "a.fdc", 11)
    assert first == _digest(tmp_path, "b.fdc", 11)
    assert first[1] > 0
    assert first[0] != _digest(tmp_path, "c.fdc", 12)[0]
