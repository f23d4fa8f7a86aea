"""CI smoke check: adaptive execution must lower skew and wall clock.

Reads the four skewed entries CI appended to the run ledger — wordcount
and sql, each with and without ``--aqe`` — and asserts the AQE runs
recorded their re-plan decisions with a strictly lower post-shuffle Gini
coefficient and a lower wall clock, while the static runs recorded none.
That collected values are identical AQE on/off (node loss included) is
tier-1's to check: ``tests/engine/test_aqe_oracle.py``.
"""

from __future__ import annotations

import json
import sys

LEDGER = sys.argv[1] if len(sys.argv) > 1 else "ledger.jsonl"


def check_ledger() -> int:
    entries = [json.loads(line) for line in open(LEDGER, encoding="utf-8")]
    replans = 0
    for workload in ("wordcount", "sql"):
        pair = [e for e in entries if e["workload"] == workload]
        assert len(pair) == 2, (
            f"expected 2 {workload} ledger entries, found {len(pair)}"
        )
        static = next(e for e in pair if not e.get("aqe_events"))
        aqe = next(e for e in pair if e.get("aqe_events"))
        assert static.get("aqe_event_count", 0) == 0
        events = aqe["aqe_events"]
        assert aqe["aqe_event_count"] == len(events)
        for event in events:
            if event["event"] != "aqe-replan":
                continue
            replans += 1
            assert event["gini_after"] < event["gini_before"], (
                f"{workload} {event['stage']}: re-plan did not lower the "
                f"partition-size Gini ({event['gini_before']} -> "
                f"{event['gini_after']})"
            )
        assert aqe["wall_clock"] < static["wall_clock"], (
            f"{workload}: AQE run was not faster "
            f"({aqe['wall_clock']:.3f}s vs {static['wall_clock']:.3f}s)"
        )
    assert replans >= 2, f"only {replans} re-plan events across both pairs"
    return replans


def main() -> None:
    replans = check_ledger()
    print(
        f"ok: {replans} ledger re-plans all lowered Gini; both AQE runs "
        f"beat their static wall clock"
    )


if __name__ == "__main__":
    main()
