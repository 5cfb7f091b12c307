"""Append-only JSON-lines cache of point counts.

One record per line, keyed by (sha of the canonical variety spec, p, k).
The path comes from the CFZ_CACHE environment variable, defaulting to
.cfz-cache.jsonl in the working directory.

Index.  The first lookup of a sha scans the file once and builds a
(p, k) -> CountRecord index for that sha only; every later lookup of the
sha in this process is a dict lookup.  Lines that do not contain the sha
are skipped before decoding.  Counts are deterministic, so duplicate keys
are harmless and the first valid record in the file wins.  A put in this
process replaces the index entry of its key, so a lookup after a put
serves the record just written.

Staleness.  A record that another process appends after this process's
first lookup of that sha is not seen here.  The cost is a recompute and a
duplicate line, which the first-record rule tolerates.

Malformed records.  A line is served only if it is UTF-8 and decodes to a
JSON object whose sha, name and method are strings, whose p, k and count
are integers (not booleans) with k >= 1 and count >= 0, whose method is
one of COUNT_METHODS, and whose sha, p and k equal the key.  Any other
line is skipped, as if it were not there.

Method.  The cache stores the method that produced each count; which
hits count_variety serves (any method under ``auto``, only a generic
count under ``generic``, never a count above the ambient space) is its
rule, not the cache's.

Each put is one os.write on a descriptor opened with O_APPEND, so lines
from parallel runs do not interleave.
"""

import json
import os

from .counting import COUNT_METHODS, CountRecord

DEFAULT_CACHE_PATH = ".cfz-cache.jsonl"


def cache_path() -> str:
    return os.environ.get("CFZ_CACHE", DEFAULT_CACHE_PATH)


def _decode_record(line: bytes, sha: str):
    """The CountRecord of a well-formed cache line for sha, None otherwise."""
    try:
        d = json.loads(line.decode("utf-8"))
    except ValueError:  # not UTF-8, or not JSON
        return None
    if not isinstance(d, dict) or d.get("sha") != sha:
        return None
    name, method = d.get("name"), d.get("method")
    p, k, count = d.get("p"), d.get("k"), d.get("count")
    if type(name) is not str or method not in COUNT_METHODS:
        return None
    if not all(type(v) is int for v in (p, k, count)) or k < 1 or count < 0:
        return None
    return CountRecord(name, p, k, count, method)


class CountCache:
    def __init__(self, path=None):
        self.path = path or cache_path()
        self._index = {}  # sha -> {(p, k): CountRecord}, for the shas looked up

    def get(self, sha: str, p: int, k: int):
        index = self._index.get(sha)
        if index is None:
            index = self._index[sha] = self._load(sha)
        return index.get((p, k))

    def _load(self, sha: str) -> dict:
        index = {}
        key = sha.encode()
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return index
        with fh:
            for line in fh:
                if key not in line:
                    continue
                rec = _decode_record(line, sha)
                if rec is not None:
                    index.setdefault((rec.p, rec.k), rec)
        return index

    def put(self, sha: str, record: CountRecord):
        d = {"sha": sha}
        d.update(record.to_json())
        data = (json.dumps(d, sort_keys=True) + "\n").encode("utf-8")
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            written = os.write(fd, data)
        finally:
            os.close(fd)
        if written != len(data):
            raise OSError(f"short write to count cache {self.path}: "
                          f"{written} of {len(data)} bytes")
        index = self._index.get(sha)
        if index is not None:
            index[(record.p, record.k)] = record
