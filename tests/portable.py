"""What the stdlib-only modules decide on the golden inputs, as JSON on
stdout, for comparing two Python versions. It needs no third-party package,
so any supported interpreter runs it:

    python -B tests/portable.py

`-B` keeps the imports from writing `__pycache__` into `src/`.
"""

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden"

# The forms the two versions' `fromisoformat` once read differently, then
# some they read alike.
STAMPS = [
    "2021-01-01T00:00:00.5Z", "2021-01-01T14:00:00.5+02:00", "2021-01-01T00:00:00.1234567Z",
    "20210101T000000Z", "2021-01-01T00:00:00+0000", "2021-01-01T00:00:00,5Z", "2021-W01-1T00:00:00Z",
    "2021-01-01T00:00:00+00", "2021-01-01T00:00:00.5+0200", "2021-01-01T00:00.5Z", "2021-01-01T000000Z",
    "2021-01-01T00:00:00Z", "2021-01-01 00:00:00+01:00", "2021-01-01T00:00Z", "2021-01-01T00:00:00.123Z",
    "2021-01-01T00:00:00-05:30", "2021-01-01T00:00:00+00:00:30", "2021-01-01T00:00:00.Z",
    "2021-01-01t00:00:00z", "2021-01-01T00:00:00", "2021-01-01T24:00:00Z", "2021-02-29T00:00:00Z",
    "２０２１-01-01T00:00:00Z",
]


def outcomes() -> dict:
    for path in sorted((SRC / "faultloom").glob("*.py")):
        compile(path.read_bytes(), str(path), "exec")
    from faultloom import corpus, gateway, stage2  # noqa: F401 -- gateway: that it imports

    criteria = stage2.FilterCriteria(stage2.load_vocabulary(GOLDEN / "vocab.txt"))
    traces = {
        f"{issue.repo}#{issue.number}": [result.to_dict() for result in stage2.apply_deterministic(issue, criteria)]
        for issue in corpus.import_dump(GOLDEN / "corpus.jsonl")
    }
    stamps = {}
    for stamp in STAMPS:
        try:
            stamps[stamp] = corpus.canonical_timestamp(stamp)
        except (TypeError, ValueError) as exc:
            stamps[stamp] = type(exc).__name__
    return {"traces": traces, "stamps": stamps}


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    print(json.dumps(outcomes(), indent=1, sort_keys=True))
