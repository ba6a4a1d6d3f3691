"""Mutants the test suite must kill.

Each mutant replaces one exact piece of text in one file of a temporary copy
of the tree, then runs the test file of the test expected to kill it there.
A mutant is killed when that test fails. Run from anywhere:

    python tests/mutants.py

First the killers' test files run on an unmutated copy, and the script exits
2 if an expected killer fails there. Then it prints each mutant with the
tests that failed, and exits 1 if any mutant survives. A mutant whose text is
no longer found exactly once in its file stops the run: the list is out of
date. pytest does not collect this file: its name does not start with
`test_`. Only the standard library and pytest are used.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # found exactly once in path
    new: str
    killer: str  # pytest node id, without parametrisation


MUTANTS = (
    Mutant("DSAF attends to its own view (self-attention)", "src/dvmer/model.py",
           "attended = self.attn(own, other, other)", "attended = self.attn(own, own, own)",
           "tests/test_model.py::test_the_mel_branch_reads_the_cochleagram_only_through_cross_attention"),
    Mutant("extract_pair reverses the cochleagram's frames", "src/dvmer/features.py",
           "coch=_coch_view(power, cfg))", "coch=_coch_view(power, cfg)[:, ::-1])",
           "tests/test_features.py::test_both_views_keep_the_segments_frame_order"),
    Mutant("_op adds a gradient without summing it over broadcast axes", "src/dvmer/nncore.py",
           "_accum(node, _reduce_to(grad(g), shape))", "_accum(node, grad(g))",
           "tests/test_nncore.py::test_two_operand_gradients_match_finite_differences_with_a_broadcast_operand"),
)


def failed_tests(mutant: Mutant | None, test_files: list[str]) -> list[str]:
    """Node ids of the tests in test_files that fail or error on a temporary
    copy of the tree, with mutant applied unless it is None."""
    with tempfile.TemporaryDirectory(prefix="dvmer-mutant-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        if mutant is not None:
            target = tree / mutant.path
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: {mutant.path} holds {text.count(mutant.old)} copies of "
                                 f"{mutant.old!r}")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *test_files],
                             cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
                             capture_output=True, text=True)
    return re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, flags=re.MULTILINE)


def _same_test(test: str, node_id: str) -> bool:
    return test == node_id or test.startswith(node_id + "[")


def main() -> int:
    killers = [m.killer for m in MUTANTS]
    broken = [t for t in failed_tests(None, sorted({k.split("::")[0] for k in killers}))
              if any(_same_test(t, k) for k in killers)]
    if broken:  # a killer that fails on the unmutated tree shows nothing
        print("expected killers that fail without a mutant:", *broken, sep="\n  ")
        return 2
    survivors = 0
    for mutant in MUTANTS:
        failed = failed_tests(mutant, [mutant.killer.split("::")[0]])
        killed = any(_same_test(t, mutant.killer) for t in failed)
        survivors += not killed
        print(f"{'killed' if killed else 'SURVIVED'}: {mutant.name} ({mutant.path})")
        print(f"  expected killer: {mutant.killer}")
        for test in failed:
            print(f"  failed: {test}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
