"""``repro.config``: one table of ``REPRO_*`` variables, one reader.

Each kind has one rule (see the module docstring).  These tests pin the
strict cases, the warning for names the table does not know, and the
two things that keep the table the single place: no other module reads
the environment, and the README's environment table lists exactly the
table's variables.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config import VARIABLES, read

SRC = Path(repro.__file__).resolve().parent
README = SRC.parents[1] / "README.md"

#: (variable, bad value).  Switches and counts raise a ValueError naming
#: the variable; the level warns, naming it, and counts as unset.
BAD_VALUES = [
    ("REPRO_SWEEP_WORKERS", "0"),
    ("REPRO_SWEEP_WORKERS", "-3"),
    ("REPRO_SWEEP_WORKERS", "abc"),
    ("REPRO_MONITOR", "maybe"),
    ("REPRO_CACHE", "maybe"),
    ("REPRO_RUNS", "maybe"),
    ("REPRO_SURROGATE", "maybe"),
    ("REPRO_LOG", "bogus"),
]


@pytest.mark.parametrize("name, raw", BAD_VALUES)
def test_bad_value_follows_its_kind(name, raw, monkeypatch):
    monkeypatch.setenv(name, raw)
    if VARIABLES[name].kind == "level":
        with pytest.warns(UserWarning, match=name):
            assert read(name) is None
    else:
        with pytest.raises(ValueError, match=name):
            read(name)


def test_good_counts_and_levels(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", " 1 ")
    assert read("REPRO_SWEEP_WORKERS") == 1
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "")
    assert read("REPRO_SWEEP_WORKERS") is None
    # An explicit argument wins and is not parsed.
    assert read("REPRO_SWEEP_WORKERS", 0) == 0
    monkeypatch.setenv("REPRO_LOG", "debug")
    assert read("REPRO_LOG") == 10
    monkeypatch.setenv("REPRO_LOG", "20")
    assert read("REPRO_LOG") == 20


def test_unknown_name_raises_key_error():
    with pytest.raises(KeyError):
        read("REPRO_SWEEP_WORKER")


def test_unknown_names_warn_once_at_import(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC.parent),
        REPRO_PROFILE_INTERVAL="0.01",
        REPRO_SWEEP_WORKER="2",
        REPRO_SWEEP_WORKERS="1",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "obs"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    for name in ("REPRO_PROFILE_INTERVAL", "REPRO_SWEEP_WORKER"):
        assert proc.stderr.count(f"{name} is not a repro setting") == 1
    assert "REPRO_SWEEP_WORKERS is not" not in proc.stderr


def _environment_reads(tree: ast.AST) -> list[int]:
    """Line numbers of ``os.environ`` / ``os.getenv`` / bare ``environ``
    and ``getenv`` uses."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv") for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_only_config_reads_the_environment():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "config.py":
            continue
        for line in _environment_reads(ast.parse(path.read_text(), str(path))):
            offenders.append(f"{path.relative_to(SRC.parent)}:{line}")
    assert offenders == []
    assert _environment_reads(ast.parse((SRC / "config.py").read_text()))


def test_readme_table_lists_every_variable():
    rows = [
        line.split("|")[1:3]
        for line in README.read_text().splitlines()
        if line.startswith("| `REPRO_")
    ]
    assert [cell.strip().strip("`") for cell, _ in rows] == list(VARIABLES)
    assert [kind.strip() for _, kind in rows] == [
        var.kind for var in VARIABLES.values()
    ]
