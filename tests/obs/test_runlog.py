"""Run logger and manifest provenance."""

import json

import numpy as np

from repro.obs.runlog import (
    NULL_LOGGER,
    RunLogger,
    build_manifest,
    git_sha,
    json_dumps,
)
from repro.util.rng import ROOT_SEED


class TestRunLogger:
    def test_records_and_by_event(self):
        log = RunLogger()
        log.log("step", step=0, dt=0.1)
        log.log("pcg_solve", iterations=5)
        log.log("step", step=1, dt=0.2)
        assert [r["step"] for r in log.records if r["event"] == "step"] == [0, 1]
        assert [r["event"] for r in log.records] == ["step", "pcg_solve", "step"]

    def test_jsonl_round_trip(self):
        log = RunLogger()
        log.log("step", dt=np.float64(0.5), launches=np.int64(402))
        recs = [json.loads(line) for line in log.to_jsonl().splitlines()]
        assert recs == [{"event": "step", "dt": 0.5, "launches": 402}]

    def test_null_logger_noop(self):
        assert NULL_LOGGER.log("step", x=1) is None
        assert NULL_LOGGER.records == ()
        assert NULL_LOGGER.to_jsonl() == ""


class TestJsonDumps:
    def test_numpy_and_tuples(self):
        out = json.loads(json_dumps({"a": np.float32(1.5), "b": (1, 2)}))
        assert out == {"a": 1.5, "b": [1, 2]}

    def test_fallback_to_str(self):
        class Odd:
            def __repr__(self):
                return "odd!"

        assert json.loads(json_dumps({"x": Odd()})) == {"x": "odd!"}


class TestManifest:
    def test_core_fields(self):
        m = build_manifest(command="run", cli={"steps": 5})
        assert m["schema"] == "repro-telemetry-manifest/1"
        assert m["seed"] == ROOT_SEED
        assert m["command"] == "run"
        assert m["cli"] == {"steps": 5}
        assert m["numpy"] is not None
        assert isinstance(m["python"], str)
        # serializable as-is
        json.loads(json_dumps(m))

    def test_git_sha_matches_repo(self):
        sha = git_sha()
        # The test tree is a git repo, so this should resolve.
        assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))

    def test_git_sha_outside_repo(self, tmp_path):
        assert git_sha(cwd=tmp_path) is None
