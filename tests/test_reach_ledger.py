"""Every src function has a CLI caller or a recorded reason.

tests/reach_ledger.py runs each subcommand in every output format and lists
the `weuler` functions none of those runs enters.  Its REASONS table says why
each of them stays.  The two must name the same functions: a new function
that no CLI run enters needs a reason, and a reason whose function is now
reached, or gone, must go.

The ledger runs in a fresh interpreter, so caches that earlier tests filled
cannot hide a function from it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

SCRIPT = """
import json, reach_ledger
rows, _ = reach_ledger.ledger()
print(json.dumps({"unreached": [name for _, name, _ in rows], "reasons": reach_ledger.REASONS}))
"""


def run_ledger() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(TESTS), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_every_unreached_function_has_a_reason_and_every_reason_a_function():
    ledger = run_ledger()
    unreached, reasons = set(ledger["unreached"]), ledger["reasons"]
    assert sorted(unreached - set(reasons)) == [], "unreached with no reason in REASONS"
    assert sorted(set(reasons) - unreached) == [], "reason for a function that is reached or gone"
    assert all(reason.strip() for reason in reasons.values())
