"""The paired A/B tool, tools/ab.py."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ab():
    spec = importlib.util.spec_from_file_location("ab",
                                                  ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_ab_runs_a_checkout_against_itself(capsys):
    """Two rounds of the splitting cycle with this checkout on both sides:
    every answer is right and the two sides' reports are byte-identical,
    so the tool exits 0, with one line per command name and one for the
    cycle."""
    assert _ab().main([str(ROOT), str(ROOT), "--workload", "splitting",
                       "--rounds", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in out[2:4]] == [
        ["split", "bipolar", "n5"], ["split", "polar", "veronese"]]
    assert out[4].split()[0] == "cycle" and out[5:] == ["0 problems"]


def test_ab_sign_test_is_two_sided():
    ab = _ab()
    assert ab.sign_test(10, 0) == ab.sign_test(0, 10) == 2.0 / 2 ** 10
    assert ab.sign_test(5, 5) == ab.sign_test(0, 0) == 1.0
