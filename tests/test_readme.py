import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs_as_written(capsys):
    # The tour is the README's first python block; it must keep running
    # as the public API changes.
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library tour") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md (Library tour)", "exec"), namespace)
    assert namespace["check_penrose"](namespace["b"], namespace["x"]).ok
    assert namespace["how"] == "all:via_drazin_U,via_drazin_V,mp_route_V,hermitian_U,hermitian_V"
    assert "result: PASS" in capsys.readouterr().out
