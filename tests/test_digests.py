"""Byte identity of the CSV for one small fixed config per frame back end.

The digests were recorded before the frame engine was restructured; a change
that alters any of them changes published numbers and has to say so.
"""
import hashlib

import pytest

from pnclab.sim import ExperimentConfig, results_csv_text, run_experiment

SMALL = dict(modulation="qam4", frames_per_point=60, frame_len=24, rank_trials=10**4, seed=11)

CASES = {
    "bmas-pilots": (
        ExperimentConfig(scheme="bmas", ebn0_db=(8.0, 14.0), pilot_len=4, **SMALL),
        "12f002c38e11da7f7ec8e00057ec68fa967afd14526eb2f9aa56feecdadd0d42",
    ),
    "rbmas-in-memory": (
        ExperimentConfig(scheme="rbmas", ebn0_db=(12.0,), **SMALL),
        "2c56300a6d51cfc1d9f9e79b74d7a2e1d632053ea89e11efab9eca39c7e9026a",
    ),
    "comp-ideal": (
        ExperimentConfig(scheme="comp_ideal", ebn0_db=(10.0,), pilot_len=4, **SMALL),
        "e89dc3cf60a7dba965b5ae822a8186e790299f330a3cf891e9fe592794e92214",
    ),
    "comp-nonideal-qam16": (
        ExperimentConfig(
            scheme="comp_nonideal", ebn0_db=(20.0,), quantizer_bits=4,
            **{**SMALL, "modulation": "qam16", "frames_per_point": 20},
        ),
        "f54a15f6532daf66104741761e039e1c68661220f004b615bb3e8e32a89f6c5e",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_digest(name):
    cfg, expected = CASES[name]
    text = results_csv_text(run_experiment(cfg))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == expected
