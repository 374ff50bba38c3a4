"""Tests for the small common utilities: hashing, errors, env switches."""

from __future__ import annotations

import ast
import hashlib
import importlib
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import errors
from repro.common.env import RunConfig, env_var
from repro.common.errors import ConfigError
from repro.common.hashing import chain_hash, hash_key, hash_value, sha256, sha256_hex


class TestHashing:
    def test_sha256_matches_stdlib(self):
        assert sha256(b"abc") == hashlib.sha256(b"abc").digest()
        assert sha256_hex(b"abc") == hashlib.sha256(b"abc").hexdigest()

    def test_hash_key_is_utf8_sha256(self):
        assert hash_key("k1") == hashlib.sha256(b"k1").digest()

    def test_hash_value_is_raw_sha256(self):
        assert hash_value(b"v") == hashlib.sha256(b"v").digest()

    def test_chain_hash_binds_both_inputs(self):
        base = chain_hash(b"\x00" * 32, b"\x01" * 32)
        assert chain_hash(b"\x02" * 32, b"\x01" * 32) != base
        assert chain_hash(b"\x00" * 32, b"\x02" * 32) != base

    @settings(max_examples=100, deadline=None)
    @given(a=st.binary(max_size=64), b=st.binary(max_size=64))
    def test_hash_collision_freedom_on_samples(self, a, b):
        if a != b:
            assert sha256(a) != sha256(b)

    def test_digest_length(self):
        assert len(sha256(b"")) == 32
        assert len(sha256_hex(b"")) == 64


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc_class",
        [
            errors.ConfigError,
            errors.CryptoError,
            errors.IdentityError,
            errors.PolicyError,
            errors.PolicyNotSatisfiedError,
            errors.LedgerError,
            errors.KeyNotFoundError,
            errors.ChaincodeError,
            errors.EndorsementError,
            errors.ProposalResponseMismatchError,
            errors.OrderingError,
            errors.ValidationError,
            errors.TransactionInvalidError,
            errors.GossipError,
            errors.AnalyzerError,
            errors.CorpusError,
        ],
    )
    def test_everything_derives_from_repro_error(self, exc_class):
        assert issubclass(exc_class, errors.ReproError)

    def test_key_not_found_message(self):
        exc = errors.KeyNotFoundError("cc", "k1", collection="PDC1")
        assert "k1" in str(exc) and "PDC1" in str(exc)
        assert exc.namespace == "cc"

    def test_key_not_found_without_collection(self):
        exc = errors.KeyNotFoundError("cc", "k1")
        assert "collection" not in str(exc)

    def test_transaction_invalid_carries_code(self):
        exc = errors.TransactionInvalidError("tid", "MVCC_READ_CONFLICT")
        assert exc.tx_id == "tid" and exc.code == "MVCC_READ_CONFLICT"

    def test_policy_not_satisfied_is_policy_error(self):
        assert issubclass(errors.PolicyNotSatisfiedError, errors.PolicyError)

    def test_mismatch_is_endorsement_error(self):
        assert issubclass(errors.ProposalResponseMismatchError, errors.EndorsementError)

    def test_key_not_found_is_ledger_error(self):
        assert issubclass(errors.KeyNotFoundError, errors.LedgerError)

    def test_single_except_catches_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.GossipError("x")


#: Every boolean :class:`RunConfig` field and its default.
BOOL_FIELDS = [(f.name, f.default) for f in fields(RunConfig) if f.type == "bool"]

# (raw value or None for unset, expected value or None for the default).
ENV_SPELLINGS = [
    (None, None), ("", None), ("  ", None),
    ("0", False), ("false", False), ("FALSE", False), ("No", False),
    ("off", False), ("OFF", False),
    ("1", True), ("true", True), ("YES", True), ("on", True),
]


class TestEnvFlag:
    def test_one_variable_per_field(self):
        names = [f.name for f in fields(RunConfig)]
        assert len(names) == 11
        assert env_var("gossip_batch") == "REPRO_GOSSIP_BATCH"
        assert len(BOOL_FIELDS) == 7

    @pytest.mark.parametrize("raw,expected", ENV_SPELLINGS)
    @pytest.mark.parametrize("name,default", BOOL_FIELDS)
    def test_every_boolean_field_parses_alike(
        self, monkeypatch, name, default, raw, expected
    ):
        if raw is None:
            monkeypatch.delenv(env_var(name), raising=False)
        else:
            monkeypatch.setenv(env_var(name), raw)
        want = default if expected is None else expected
        assert getattr(RunConfig.from_env(), name) is want

    def test_numeric_and_spec_fields(self, monkeypatch):
        monkeypatch.setenv("REPRO_STATE_BACKEND", "wal")
        monkeypatch.setenv("REPRO_EXECUTOR", " process:2 ")
        monkeypatch.setenv("REPRO_SNAPSHOT_EVERY", "12")
        monkeypatch.setenv("REPRO_ANTI_ENTROPY_EVERY", "2.5")
        run = RunConfig.from_env()
        assert (run.state_backend, run.executor) == ("wal", "process:2")
        assert (run.snapshot_every, run.anti_entropy_every) == (12, 2.5)

    def test_overrides_beat_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_REORDER", "1")
        monkeypatch.setenv("REPRO_SNAPSHOT_EVERY", "7")
        run = RunConfig.from_env(reorder=False, snapshot_every=3)
        assert run.reorder is False and run.snapshot_every == 3

    @pytest.mark.parametrize("name,raw,message", [
        ("state_backend", "bogus", "unknown state backend 'bogus'"),
        ("executor", "thread", "unknown executor kind 'thread'"),
        ("executor", "process:x", "invalid worker count"),
        ("executor", "process:0", "needs at least 1 worker"),
        ("snapshot_every", "often", "REPRO_SNAPSHOT_EVERY='often' is not an integer"),
        ("snapshot_every", "-1", "snapshot interval must be >= 0"),
        ("anti_entropy_every", "soon", "must be a number of simulated seconds"),
        ("anti_entropy_every", "-2", "anti-entropy cadence must be >= 0"),
    ])
    def test_bad_values_raise_config_error(self, monkeypatch, name, raw, message):
        monkeypatch.setenv(env_var(name), raw)
        with pytest.raises(ConfigError, match=re.escape(message)):
            RunConfig.from_env()

    @pytest.mark.parametrize("raw,expected", ENV_SPELLINGS)
    def test_crypto_switches_frozen_at_import(self, raw, expected):
        # Both crypto switches (default on) are read once, at import, so
        # each spelling needs a fresh interpreter.
        switches = ("REPRO_CRYPTO_FAST", "REPRO_VERIFY_CACHE")
        env = {k: v for k, v in os.environ.items() if k not in switches}
        if raw is not None:
            env.update(dict.fromkeys(switches, raw))
        src = str(Path(importlib.import_module("repro").__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        probe = "from repro.common import crypto; print(crypto._FAST_PATH, crypto._CACHE_ENABLED)"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        want = str(True if expected is None else expected)
        assert result.stdout.split() == [want, want]


SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _sources() -> dict:
    return {p.relative_to(SRC).as_posix(): p.read_text() for p in SRC.rglob("*.py")}


class TestRunSwitchGuards:
    """Run switches are resolved in one place and handed down as values."""

    def test_environment_read_only_by_the_env_module(self):
        readers = sorted(
            path for path, text in _sources().items()
            if "os.environ" in text or "getenv" in text
        )
        assert readers == ["common/env.py"]

    def test_env_flag_called_only_for_the_crypto_switches(self):
        calls = set()
        for path, text in _sources().items():
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)
                ) == "env_flag":
                    calls.add((path, node.args[0].value))
        assert calls == {
            ("common/crypto.py", "REPRO_CRYPTO_FAST"),
            ("common/crypto.py", "REPRO_VERIFY_CACHE"),
        }

    def test_no_parameter_defers_to_the_environment(self):
        deferring = re.compile(r"None\s*(?:->|→|=)\s*consult|consult\s+REPRO_", re.I)
        offenders = sorted(
            path for path, text in _sources().items() if deferring.search(text)
        )
        assert offenders == []
