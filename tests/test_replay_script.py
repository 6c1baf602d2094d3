"""scripts/replay.py prints one digest per output of each replayed run."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "replay.py"


def load_replay():
    spec = importlib.util.spec_from_file_location("replay_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_case_prints_the_same_four_digests_twice(capsys):
    replay = load_replay()
    outputs = []
    for _ in range(2):
        assert replay.main(["max_steps_3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = [line.split() for line in outputs[0].splitlines()]
    assert [line[:2] for line in lines] == [
        ["max_steps_3", "audit"], ["max_steps_3", "detailed_results"],
        ["max_steps_3", "recommendations"], ["max_steps_3", "summary"],
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line[2]) for line in lines)


def test_an_unknown_case_is_refused(capsys):
    assert load_replay().main(["no_such_case"]) == 2
    assert "no_such_case" in capsys.readouterr().err
