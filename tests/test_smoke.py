"""tools/smoke.py, the packaging smoke script: a wrong expectation fails its row, by name."""

import importlib.util
from pathlib import Path


def test_a_planted_wrong_value_fails_its_row_by_name(capsys):
    path = Path(__file__).resolve().parent.parent / "tools" / "smoke.py"
    spec = importlib.util.spec_from_file_location("smoke", path)
    smoke = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(smoke)
    args, code, check = smoke.ROWS[0]
    assert args == "eval --seq fibonacci -n 10"
    assert smoke.failures([(args, code, check)]) == []
    assert smoke.failures([(args, code, smoke.prints(lambda: 56))]) == [args]
    assert capsys.readouterr().out == f"FAIL {args!r}: unexpected output\n"
