import ast
from pathlib import Path

import numpy as np
import pytest

import sovxxz
from sovxxz.errors import ConvergenceError, ParameterError, refuse

PACKAGE = Path(sovxxz.__file__).resolve().parent


class TestRefuse:
    def test_names_the_row_major_first_hit(self):
        flags = np.zeros((3, 4), dtype=bool)
        flags[2, 0] = flags[1, 3] = True
        with pytest.raises(ParameterError, match="^bad$") as caught:
            refuse(flags, ParameterError, "bad")
        assert caught.value.at == (1, 3)
        assert all(type(i) is int for i in caught.value.at)

    def test_a_callable_message_takes_the_index(self):
        flags = np.array([False, False, True, True])
        with pytest.raises(ConvergenceError, match=r"^entry \(2,\) of 4$") as caught:
            refuse(flags, ConvergenceError, lambda at: f"entry {at} of {len(flags)}")
        assert caught.value.at == (2,)

    @pytest.mark.parametrize("flags", [np.zeros((2, 3), dtype=bool), np.zeros(0, dtype=bool),
                                       np.zeros((0, 5), dtype=bool), False, [False, False]])
    def test_no_hit_does_nothing(self, flags):
        def never(at):
            raise AssertionError(f"message built for a mask with no hit at {at}")

        assert refuse(flags, ParameterError, never) is None

    def test_a_0d_flag_names_the_empty_index(self):
        with pytest.raises(ParameterError) as caught:
            refuse(np.float64(2.0) > 1.0, ParameterError, lambda at: f"at {at}")
        assert caught.value.at == () and str(caught.value) == "at ()"


def _hand_written_refusals(source: str) -> list[str]:
    """Lines of ``source`` that turn a mask into a refusal's index by hand:
    ``np.unravel_index``, or an ``if <...>.any():`` whose first statement
    raises."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "unravel_index":
            found.append(f"{node.lineno}: np.unravel_index")
        if isinstance(node, ast.If) and isinstance(node.test, ast.Call) \
                and isinstance(node.test.func, ast.Attribute) and node.test.func.attr == "any" \
                and isinstance(node.body[0], ast.Raise):
            found.append(f"{node.lineno}: if ...any(): raise")
    return found


def test_refuse_is_the_one_home_of_the_refusal_index():
    # every guard names its first offender through errors.refuse: no module
    # but errors.py unravels an index, and no mask is tested and raised on by
    # hand
    stray = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "errors.py"
             for line in _hand_written_refusals(path.read_text(encoding="utf-8"))]
    assert not stray, "refusal index built outside errors.refuse:\n" + "\n".join(stray)


def test_the_idiom_lint_sees_both_forms():
    source = ("import numpy as np\n"
              "def guard(bad):\n"
              "    if bad.any():\n"
              "        raise ValueError(np.unravel_index(np.argmax(bad), bad.shape))\n")
    assert _hand_written_refusals(source) == ["3: if ...any(): raise", "4: np.unravel_index"]
