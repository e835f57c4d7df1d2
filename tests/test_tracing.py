"""The benchmark's span tracer wraps package attributes by name; a renamed
or dropped attribute must fail here, not only inside a traced benchmark."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_span_tracer_installs_on_the_package():
    code = "import sys; sys.path[:0] = sys.argv[1:]; from spans import Tracer, install; install(Tracer())"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
