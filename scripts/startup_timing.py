#!/usr/bin/env python3
"""Start-up cost of lassosat, measured on fresh interpreters.

Prints the median wall time of N fresh `python -c "import lassosat"`
processes, the median of N `python -m lassosat.cli check --bound 5` runs
on tests/data/lamp.zot, and the five modules with the largest median
self time under `python -X importtime -c "import lassosat"` (N more runs).
The processes import the checkout's src/lassosat and inherit the
environment, so whether they compile every module or load cached bytecode
follows PYTHONDONTWRITEBYTECODE and what `__pycache__` holds.

Usage: python scripts/startup_timing.py [N]   (default N = 9)
"""

import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAMP = ROOT / "tests" / "data" / "lamp.zot"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


def _run(args, env) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    if proc.returncode not in (0, 1):  # 1 is UNSAT, 2 an error
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def wall_median(n: int, args, env) -> float:
    times = []
    for _ in range(n):
        started = time.perf_counter()
        _run(args, env)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def import_self_times(n: int, env) -> dict:
    """Module -> median self time in microseconds over n importtime runs."""
    samples = defaultdict(list)
    for _ in range(n):
        stderr = _run(["-X", "importtime", "-c", "import lassosat"], env).stderr
        for line in stderr.splitlines():
            if line.startswith("import time:") and "self [us]" not in line:
                own, _, name = line[len("import time:"):].split("|")
                samples[name.strip()].append(int(own))
    return {name: statistics.median(values) for name, values in samples.items()}


def main(argv) -> int:
    n = int(argv[1]) if len(argv) > 1 else 9
    if n < 1:
        sys.exit("N must be at least 1")
    env = _env()
    with tempfile.TemporaryDirectory() as out:
        check = ["-m", "lassosat.cli", "check", "--bound", "5", "--out", out, str(LAMP)]
        print(f"import lassosat: median of {n} processes {wall_median(n, ['-c', 'import lassosat'], env):.3f} s")
        print(f"check --bound 5 lamp.zot: median of {n} processes {wall_median(n, check, env):.3f} s")
    own = import_self_times(n, env)
    print(f"largest -X importtime self times of import lassosat (median of {n}):")
    for name, us in sorted(own.items(), key=lambda item: -item[1])[:5]:
        print(f"  {us / 1000:7.1f} ms  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
