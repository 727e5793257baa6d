"""Fixtures shared by the test modules."""

import json

import pytest

from pchgrav import cli


@pytest.fixture(scope="session")
def default_verify(tmp_path_factory):
    """(exit code, JSON report) of one `pchgrav verify` run on the default config `{}`."""
    d = tmp_path_factory.mktemp("verify")
    cfg = d / "config.json"
    cfg.write_text("{}")
    out = d / "report.json"
    code = cli.main(["verify", "--config", str(cfg), "--out", str(out)])
    return code, json.loads(out.read_text())
