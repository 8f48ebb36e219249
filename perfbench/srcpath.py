"""Puts the repository's `src/` on `sys.path` so the benchmark runs the
package from source, without installing it.

Exits with status 2, printing no result, when the checkout has no
`src/dialoscope` to run.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "dialoscope" / "__init__.py").is_file():
    print(f"perfbench: no dialoscope package under {SRC}", file=sys.stderr)
    raise SystemExit(2)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
