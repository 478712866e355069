"""Shared fixtures and small helpers for the test suite.

The benchmark tests need PhysioNet record files that are not shipped
with the repository. Point ECGZ_MITDB_DIR / ECGZ_CDB_DIR at directories
of .hea/.dat files, or place them under data/mitdb and data/cdb; tests
that need them skip with download instructions otherwise.
"""

import os
from pathlib import Path

import pytest

from ecgz import encoder

REPO_ROOT = Path(__file__).resolve().parent.parent

# Sizes to patch into encoder._BLOCK at the array core's edges: shorter than one frame, around the
# widest frame (6 samples) and one doubling jump (32 frames), and around the first 1,440-sample
# resync stop (sample 1,435)
BLOCKS = [1, 5, 6, 7, 31, 32, 33, *range(1434, 1447)]

# The 48 half-hour two-lead arrhythmia records every published ratio
# table averages over.
MITDB_RECORDS = [
    *(str(n) for n in range(100, 110)),
    *(str(n) for n in range(111, 120)),
    *(str(n) for n in range(121, 125)),
    *(str(n) for n in range(200, 204)),
    "205",
    *(str(n) for n in range(207, 211)),
    *(str(n) for n in range(212, 216)),
    "217",
    *(str(n) for n in range(219, 224)),
    "228",
    *(str(n) for n in range(230, 235)),
]

FETCH_HINT = (
    "fetch them on a networked machine with 'python3 scripts/fetch_mitdb.py' "
    "or set ECGZ_MITDB_DIR / ECGZ_CDB_DIR"
)


def _data_dir(env_var: str, default_subdir: str) -> Path:
    override = os.environ.get(env_var)
    if override:
        return Path(override)
    return REPO_ROOT / "data" / default_subdir


@pytest.fixture(scope="session")
def mitdb_dir():
    d = _data_dir("ECGZ_MITDB_DIR", "mitdb")
    if not d.is_dir() or not any(d.glob("*.hea")):
        pytest.skip(f"no arrhythmia records in {d}; {FETCH_HINT}")
    return d


@pytest.fixture(scope="session")
def full_mitdb_dir(mitdb_dir):
    """The arrhythmia directory, but only when all 48 records are present."""
    missing = [
        name
        for name in MITDB_RECORDS
        if not (mitdb_dir / f"{name}.hea").is_file() or not (mitdb_dir / f"{name}.dat").is_file()
    ]
    if missing:
        pytest.skip(
            f"{mitdb_dir} is missing {len(missing)} of 48 records "
            f"(e.g. {', '.join(missing[:4])}); {FETCH_HINT}"
        )
    return mitdb_dir


@pytest.fixture(scope="session")
def cdb_dir():
    d = _data_dir("ECGZ_CDB_DIR", "cdb")
    if not d.is_dir():
        pytest.skip(f"no compression-test records in {d}; {FETCH_HINT}")
    heads = list(d.glob("*.hea"))
    if len(heads) < 168:
        pytest.skip(f"{d} holds {len(heads)} records, the published average needs all 168")
    return d


def pending(error: int, original: int = 0) -> encoder.PendingSample:
    """Queue entry with the width class computed from the residual."""
    return encoder.PendingSample(original, error, encoder.min_width_class(error))


def queue_of(errors, originals=None) -> list:
    originals = originals if originals is not None else [0] * len(errors)
    return [pending(e, o) for e, o in zip(errors, originals)]
