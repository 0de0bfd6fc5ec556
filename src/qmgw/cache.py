"""On-disk coefficient-table cache.

Files are JSON keyed by (operation, parameters, code version), where the
code version is a hash of the package's sources, and carry a SHA-256 of
their payload.  Any mismatch on load, a payload that fails its checksum,
or one that does not decode, is treated as a miss and forces a recompute,
so stale or damaged caches can never change results.  Writes go through a
temp file in the same directory followed by an atomic rename.
"""

import json
import os
from functools import lru_cache
from pathlib import Path

from .errors import InvalidSeries

SCHEMA_VERSION = "2"

#: what a decoder raises on a payload of the wrong shape or type
MALFORMED = (
    TypeError, ValueError, KeyError, AttributeError, ArithmeticError,
    InvalidSeries,
)


@lru_cache(maxsize=None)
def _sha256_type():
    # hashlib maps OpenSSL's libcrypto (~3.5 MB); CPython's built-in module
    # gives the same digests without it (`_sha2` from 3.12, `_sha256` before)
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def _sha256(data=b""):
    return _sha256_type()(data)


@lru_cache(maxsize=None)
def code_version():
    """SHA-256 over the package's .py sources; computed once per process."""
    digest = _sha256()
    package = Path(__file__).resolve().parent
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _checksum(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return _sha256(blob.encode()).hexdigest()


def _key(operation, parameters):
    blob = json.dumps(
        {"op": operation, "params": parameters}, sort_keys=True
    )
    return _sha256(blob.encode()).hexdigest()[:24]


def cache_path(cache_dir, operation, parameters):
    return cache_dir / f"{operation}-{_key(operation, parameters)}.json"


def load(cache_dir, operation, parameters):
    """Return the cached payload or None on any mismatch."""
    path = cache_path(cache_dir, operation, parameters)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    if (
        not isinstance(data, dict)
        or data.get("schema") != SCHEMA_VERSION
        or data.get("code_version") != code_version()
        or data.get("operation") != operation
        or data.get("parameters") != parameters
        or "payload" not in data
        or data.get("checksum") != _checksum(data["payload"])
    ):
        return None
    return data["payload"]


def store(cache_dir, operation, parameters, payload):
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_path(cache_dir, operation, parameters)
    body = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "code_version": code_version(),
            "operation": operation,
            "parameters": parameters,
            "payload": payload,
            "checksum": _checksum(payload),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    import tempfile  # only writes pay for it

    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def cached(config, operation, parameters, compute, encode, decode):
    """Generic read-through helper honoring config.no_cache.

    A payload that `decode` rejects is a miss, like any other mismatch; a
    store that fails with an OSError (say, an unwritable cache directory)
    still returns the computed value.
    """
    if config.no_cache:
        return compute()
    payload = load(config.cache_dir, operation, parameters)
    if payload is not None:
        try:
            return decode(payload)
        except MALFORMED:
            pass
    value = compute()
    try:
        store(config.cache_dir, operation, parameters, encode(value))
    except OSError:
        pass
    return value
