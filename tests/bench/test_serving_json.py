"""``BENCH_serving.json`` records the server the serving benchmark ran."""

import json

from repro.bench.__main__ import _write_serving_json


def test_records_the_measured_server_workers(tmp_path):
    """The serving benchmark runs one worker per client, eight of each."""
    path = _write_serving_json([], str(tmp_path))
    with open(path) as handle:
        payload = json.load(handle)
    assert payload["clients"] == 8
    assert payload["workers"] == 8
