"""The workflow's installed-script steps, run here through a `vlplus` shim.

.github/workflows/tests.yml checks the console script with pinned digests
(characters, decompositions, certificates, module tables, fusion answers)
in steps that run in the runner's temporary directory.  Each such step's
`run:` block is read from the file and run under `bash -e` in a fresh
directory, with `vlplus` a shim for `python -m vlplus.cli` and `python`
one for the interpreter, both with the source tree on PYTHONPATH, so a
stale pin fails here and not only in CI.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
IN_TEMP = "working-directory: ${{ runner.temp }}"


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def installed_script_steps() -> dict[str, str]:
    """{name: script} of every step that runs in ${{ runner.temp }}.

    A step is the lines from its `- name:` up to the next line at the same
    indentation or less; its script is the `run: |` block scalar, the lines
    below `run:` indented deeper, less the first one's indentation."""
    lines = WORKFLOW.read_text().splitlines()
    starts = [i for i, line in enumerate(lines) if line.lstrip().startswith("- name:")]
    steps = {}
    for start in starts:
        depth = _indent(lines[start])
        end = next((i for i in range(start + 1, len(lines))
                    if lines[i].strip() and _indent(lines[i]) <= depth), len(lines))
        body = lines[start:end]
        if not any(line.strip() == IN_TEMP for line in body):
            continue
        run = next(i for i, line in enumerate(body) if line.strip() == "run: |")
        block = []
        for line in body[run + 1:]:
            if line.strip() and _indent(line) <= _indent(body[run]):
                break
            block.append(line)
        cut = _indent(next(line for line in block if line.strip()))
        steps[lines[start].split("name:", 1)[1].strip()] = "\n".join(l[cut:] for l in block) + "\n"
    return steps


STEPS = installed_script_steps()


def test_every_installed_script_step_is_parsed():
    # one step per `working-directory: ${{ runner.temp }}` line, each with a script
    lines = WORKFLOW.read_text().splitlines()
    assert len(STEPS) == sum(line.strip() == IN_TEMP for line in lines) > 0
    assert all(script.strip() for script in STEPS.values())


@pytest.mark.parametrize("name", STEPS)
def test_installed_script_step_passes(tmp_path, name):
    missing = [tool for tool in ("bash", "sha256sum", "timeout") if shutil.which(tool) is None]
    if missing:
        pytest.skip(f"the workflow's steps need {', '.join(missing)}")
    shims = tmp_path / "bin"
    shims.mkdir()
    python = f'PYTHONPATH="{ROOT / "src"}" exec "{sys.executable}"'
    for tool, command in (("python", f'{python} "$@"'), ("vlplus", f'{python} -m vlplus.cli "$@"')):
        shim = shims / tool
        shim.write_text(f"#!/bin/sh\n{command}\n")
        shim.chmod(0o755)
    work = tmp_path / "temp"
    work.mkdir()
    (tmp_path / "step.sh").write_text(STEPS[name])
    env = dict(os.environ, PATH=f"{shims}{os.pathsep}{os.environ.get('PATH', '')}")
    env.pop("PYTHONPATH", None)
    done = subprocess.run(["bash", "-e", str(tmp_path / "step.sh")], cwd=work, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, (done.stdout[-2000:], done.stderr[-2000:])
