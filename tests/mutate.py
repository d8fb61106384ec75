"""Flip one operator at a time in a module of epgw, and print the flips no test catches.

A by-hand mutation pass, stdlib only. pytest does not collect this file,
and the test suite does not run it: a module takes minutes. From the
repository root:

    python tests/mutate.py src/epgw/dynamics.py tests/test_dynamics.py tests/test_readout_properties.py

Each comparison, bitwise and boolean operator of the module is swapped
for its partner (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``,
``&`` and ``|``, ``and`` and ``or``), and so is each name ``minimum`` and
``maximum`` (``np.minimum`` and ``np.maximum``, ``.accumulate`` included),
one at a time, in a copy of the checkout made in a temporary directory,
so the checkout is never edited. An operator inside an annotation is left
alone: annotations are not evaluated. The test selection (the arguments after the module, as
pytest takes them; put ``--`` before options such as ``-k``) runs on each
mutant with ``-x``. A mutant that the selection passes survives, and the
survivors are printed as path:line:column with the flip. ``--line``
limits the pass to chosen lines. A survivor of a subset may still fail
elsewhere: re-run it against the whole suite before reading it as an
unpinned boundary.

Known equivalent mutants, which no input can tell from the original:
- ``spectral._continuity_swaps``, ``swap < keep`` in ``flips`` -> ``<=``:
  a tie is also a reset, and the labeling after a reset is read relative
  to the parity there, so the flip a tie adds cancels.
- ``spectral.sweep_photon_number``, the overflow test's ``and`` -> ``or``:
  center + root is finite exactly when center - root is (a finite root is
  at most 1.6e154, far below an ulp of a center near the double range's
  end), so both branches' checks agree at every point.
- ``dynamics._fft_length``, ``power_3 < m`` and ``odd < m`` -> ``<=``: at
  power_3 = m the inner loop does not run, and at odd = m >= n the least
  multiple of odd that is >= n is m itself, so m stays.
- ``dynamics._peak_bins``, ``candidates.size > 2`` -> ``>=``: the
  partition of two candidates keeps both, each >= the smaller.
- ``dynamics._readout``, ``y0 > 0.0`` -> ``>=``: y0 is a peak, above
  ym >= 0.
- ``sensitivity._plain_overlay``, the field-limit ``>`` -> ``>=``: a cell
  of exactly the limit goes to the csv path, which reads the same table.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

FLIPS = {
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
    "&": "|", "|": "&", "and": "or", "or": "and", "minimum": "maximum", "maximum": "minimum",
}
ROOT = Path(__file__).resolve().parents[1]
# a mutant may loop forever; one that runs this many times the unmutated run (and at least
# the floor, in seconds) is stopped and counted as caught
TIMEOUT_FACTOR = 10.0
TIMEOUT_FLOOR_S = 10.0


def sites(source: str) -> list[tuple[int, int, str]]:
    """(line, column, operator) of every operator in FLIPS in the source, outside annotations."""
    annotations = [
        ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        for parent in ast.walk(ast.parse(source))
        for node in (getattr(parent, "annotation", None), getattr(parent, "returns", None))
        if node is not None
    ]
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return [
        (t.start[0], t.start[1], t.string)
        for t in tokens
        if t.type in (tokenize.OP, tokenize.NAME) and t.string in FLIPS
        and not any(start <= t.start < end for start, end in annotations)
    ]


def mutant(source: str, line: int, column: int, op: str) -> str:
    """The source with the operator at (line, column) flipped; nothing else moves."""
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    lines[line - 1] = text[:column] + FLIPS[op] + text[column + len(op) :]
    return "".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="the module to mutate, e.g. src/epgw/spectral.py")
    parser.add_argument("tests", nargs="+", help="the test selection, as pytest takes it")
    parser.add_argument("--line", type=int, action="append", help="mutate only this line (repeatable)")
    args = parser.parse_args(argv)
    module = Path(args.module).resolve().relative_to(ROOT)
    source = (ROOT / module).read_text(encoding="utf-8")
    todo = [site for site in sites(source) if not args.line or site[0] in args.line]

    with tempfile.TemporaryDirectory(prefix="epgw-mutate-") as work:
        skip = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_work")
        shutil.copytree(ROOT, work, ignore=skip, dirs_exist_ok=True)
        # no bytecode: a flip of == and != keeps the file's size, and a cached .pyc could mask it
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(Path(work, "src"))}
        command = [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args.tests]

        def run(timeout: float | None = None) -> subprocess.CompletedProcess | None:
            try:
                return subprocess.run(command, cwd=work, env=env, capture_output=True, text=True, timeout=timeout)
            except subprocess.TimeoutExpired:
                return None

        start = time.perf_counter()
        baseline = run()
        timeout = max(TIMEOUT_FLOOR_S, TIMEOUT_FACTOR * (time.perf_counter() - start))
        if baseline.returncode != 0:
            print(f"the selection fails on the unmutated module; nothing to measure:\n{baseline.stdout[-2000:]}", file=sys.stderr)
            return 2
        survivors = []
        for line, column, op in todo:
            Path(work, module).write_text(mutant(source, line, column, op), encoding="utf-8")
            flip = f"{module}:{line}:{column + 1}  {op} -> {FLIPS[op]}"
            result = run(timeout)
            survived = result is not None and result.returncode == 0
            print(f"{'SURVIVED' if survived else 'caught  '} {flip}", flush=True)
            if survived:
                survivors.append(flip)

    print(f"\n{len(survivors)} of {len(todo)} mutants survived")
    print("\n".join(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
