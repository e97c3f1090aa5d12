"""The benchmark harness still runs against the package.

``bench/spans.py`` wraps package functions by name and ``bench/workloads.py``
calls them, so a renamed or reshaped function breaks the benchmark.  This
runs, in a fresh interpreter with ``src`` and ``bench`` on ``sys.path``, the
tracing install and then one item of every workload through the harness's
own ``prepare``, ``run`` and ``check``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, random, sys
sys.path[:0] = sys.argv[1:3]
import spans, workloads

rec = spans.Recorder()
spans.install(rec)
results = {}
for name in workloads.WORKLOADS:
    item = workloads.make_round(name, 0, random.Random(0))[0][0]
    letters, run, check = workloads.prepare(item)
    rec.item = item["id"]
    out = run()
    rec.item = None
    results[name] = check(out)[0]
sums = spans.layer_sums(rec.spans)
print(json.dumps({"ok": results, "spans": sorted(k[:-6] for k in sums if k.endswith(".calls"))}))
"""


def test_one_item_of_every_workload_runs_traced():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["ok"] == {"relsuite": True, "blowup": True, "pathwalk": True, "modular": True}
    # each workload's main layer was reached through its wrapper
    assert {"verify.check_relations", "transport", "verify.path_independence",
            "moddouble.build_modified", "moddouble.qtori", "cli.main"} <= set(report["spans"])
