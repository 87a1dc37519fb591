"""Smoke tests: the fast example scripts run end to end."""

import pathlib
import runpy
import sys

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name, argv=()):
    old_argv = sys.argv
    sys.argv = [name] + list(argv)
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestFastExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        output = capsys.readouterr().out
        assert "brians-iphone.campus.example.edu" in output
        assert "NXDOMAIN" in output

    def test_mitigation_audit(self, capsys):
        run_example("mitigation_audit.py")
        output = capsys.readouterr().out
        assert "carry-over (status quo)" in output
        assert "hashed" in output
        assert "Takeaways" in output

    def test_examples_exist_and_have_docstrings(self):
        scripts = sorted(EXAMPLES.glob("*.py"))
        assert len(scripts) >= 5
        for script in scripts:
            text = script.read_text()
            assert text.lstrip().startswith(("#!/usr/bin/env python3", '"""')), script.name
            assert '"""' in text
