"""The line counter ``tools/loc.py`` must split each line into exactly one
of its four kinds, as counted by hand, and print the change from another
checkout."""

import importlib.util
import os
import subprocess
import sys
import textwrap

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools", "loc.py")

spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

MODULE = textwrap.dedent('''\
    """Module docstring,

    over three lines."""
    # a comment line

    import math  # code with a trailing comment


    class Box:
        """One-line class docstring."""

        size = 2
            # an indented comment

        def area(self):
            """Function
            docstring."""
            text = """not a docstring
    # nor a comment"""
            return math.prod((self.size, self.size))
    ''')


def test_counts_match_hand_counts_and_sum_to_the_total(tmp_path):
    path = tmp_path / "src" / "priorgt" / "mod.py"
    path.parent.mkdir(parents=True)
    path.write_text(MODULE)
    # docstring: lines 1-3, 10, 16-17; comment: 4 and 13; blank: 5, 7, 8, 11, 14;
    # code: 6, 9, 12, 15 and 18-20, the string's "#" line included.
    counts = loc.count_lines(MODULE)
    assert counts == {"docstring": 6, "comment": 2, "blank": 5, "code": 7, "total": 20}
    assert sum(counts[kind] for kind in loc.KINDS) == counts["total"] == len(MODULE.splitlines())
    assert loc.count_package(tmp_path) == {"mod.py": counts, "total": counts}


def test_against_prints_each_files_change(tmp_path):
    (tmp_path / "src" / "priorgt").mkdir(parents=True)
    (tmp_path / "src" / "priorgt" / "gone.py").write_text(MODULE)
    out = subprocess.run([sys.executable, TOOL, "--against", str(tmp_path)], capture_output=True, text=True,
                         check=True).stdout
    here, change = out.split(f"\nchange from {tmp_path}:\n")
    assert here.splitlines()[0].split() == change.splitlines()[0].split() == ["file", *loc.KINDS, "total"]
    rows = {line.split()[0]: line.split()[1:] for line in change.splitlines()[1:]}
    assert rows["gone.py"] == ["-6", "-2", "-5", "-7", "-20"]
    totals = {line.split()[0]: line.split()[1:] for line in here.splitlines()[1:]}["total"]
    assert [int(x) for x in rows["total"]] == [int(x) - d for x, d in zip(totals, (6, 2, 5, 7, 20))]
