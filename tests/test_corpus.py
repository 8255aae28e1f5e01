"""The byte corpus (tests/corpus.py): every command kind prints the bytes
pinned here, under every interpreter setting.

A deliberate change to what a command prints updates that kind's digest in
the same change, and says why.  A failure names the command kinds whose
bytes moved.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

from corpus import calls, digests

TESTS = Path(__file__).resolve().parent

PINNED = {
    "f2 census": "e82bacbc4d29e54911cb97d5b920b5e05d0b8dbf1939a7ca7028294aa5e05b44",
    "f2 count": "851fdd498124572cf1ee2f958e9b277f87958a2c467c1777c9a686b604777b38",
    "f2 decompose": "fc4889c943cd9080f3f0c92299fc00b2b5e5b7ed15dc243fdbf53612acba6469",
    "f2 ec8": "caacb3a55321a5d53307eaa9d770e89cdc5efb90cda9a22ed3fa44feb066cd83",
    "f2 radical": "425f978c6ca042a36ca8be6807a14a1e1f46b03f212947d22c495ca78cd72b33",
    "form evaluate": "236c98a678b0d0b76ae33867c0da4f639dff61a18c7ee0776e1d961e569e8c19",
    "form lagrangian": "6bf21eac3b192d15e2aa1055c6b08809b6960f6adfd1ab93b0a3badaf7e6e63f",
    "form max-isotropic": "538df5581828786aca502f9654a3b7987c606143753a0dabd3c6a522c108df86",
    "form nondegenerate": "1af9a6f4941c4e280b6a79e6025818fce16e76e39350a68c992d2b06f236d405",
    "form quotient-lagrangian": "1adb42facffabc7f9547d0036e6785065b11d5be0298fada7c5d1dbc91a2c320",
    "form radical": "88f83893dd574eb146bcad680d135a2d71cfcbfb584d170d1791467f7b52d5f1",
    "form standard": "544940d5bbca1e8c14171f2b61f92f4e8ea54b916a1b8969b44f709e11d14e93",
    "group char": "136f4bdc6066d5066d070e40590577ce43b3be2b38b3231b7f256b8faab108ca",
    "group dual": "f86eaa5f36eae7c60846454e1c34ce92d77375f97dd2c4a5f5b40dc975a55ec2",
    "group embeds": "4752c0da0163d81122465b75cd5e55c4f0d13f9e52dab531078626e3dabde2ec",
    "group info": "8897abd9dfd82d95e3c4fc22c0f6ba25eb8e3b16f73b8c51b5f9c3a84350b51f",
    "group quotient": "6ece9a8f0f9cb360d2ca2cc796bfbd1fc8f9e4c045ac3fbadb6c8b3e4ad6b26b",
    "group reduce": "ac7ce3c143a2faba4014650bf843ff53a0fe3d0fce5562cff64f65a192a39545",
    "group span": "057110c30d3f4d6f6188825245a5ed2e8b786b9260d300262fda8daa1dab55cc",
    "group subgroups": "068c503c0d9e1d5dc95b7e07ce3a7111880f693b4ddf66638f21387365866251",
    "group subgroups --list": "aba109be78e69882a1d2845ecc2715732316f4c271b22b583c2cf3049e163d14",
    "obstruct compare": "08d9e145cda06e2d0b01e9e9d9eca165c611696724e3a6a5f17cb4da07837e5a",
    "obstruct f": "e5e1ea481ca53d03248a7f0cdbab41ec1bc20b44e7608de41b66f30748d75249",
    "obstruct fe": "cb58303eb85431605097353a04449c8d35559dab42e7cefbe412589e38538922",
    "obstruct min-partition": "643b05594cfaec0e4b1ce4d4548c8e2bae25d2a7c941b603929391163d5939d3",
    "obstruct thm13": "a1bc23bf52ca1a4bb6afd852f1c835554cf1372f9f4861514fa67779a44c521a",
    "pgl alpha": "5fd9a185632e15175b40e71e67c3d7d42b4c5a4654c9ee28082a4f7310934b23",
    "pgl depth": "3800bc5d94e3f4cd19009760bf3f00c2cf96c165e2f477ab8a0552527d989945",
    "pgl element": "994326eeccaeb0e10d1bedb368e2f159e31f24175472ad996c60a1661b36898d",
    "pgl toral": "a1465f6f360ca011289cae32ea3e6cdd3de9027bf51396d5b562ce396b7f45df",
    "tables check": "8756b731da0b87fc92b48eb788e3194b1d7ed33cb30d72bec0d7ddfb4dee0383",
    "tables divisors": "3d582e06e8688dabbdb9eadcf068c869af9220de96999accbc5d17e4a7de09d2",
    "tables dump": "8ad7fb60c660c7b852200f8eacb3c27b66851b1699b4a2440b70922c3097fd33",
    "tables quadform": "6011ac6e5dc855e884c07f4d85d4457925ecffce5fb5f52fa3f0b229be2485b8",
    "tables tits": "7790a69084788568b6c8d197c4866c74a87474f7b0800fb0eb7c0df771c2886b",
    "tables torsion": "cd028568cd7f5850c7a9a2f8efe269542f5af700f5d3d34eefcd615226148ba5",
    "usage": "0f203f6a78db7f871a655b5cf154c2946bf1b9410777b7e34fd4a96b3ffaa4ce",
    "verify": "96502e1f4ea8e0233e1a1c064613c86e52fd282114426176b2ce5666d74e04b7",
}


def test_every_command_kind_prints_the_pinned_bytes():
    got = digests(calls())
    assert sorted(got) == sorted(PINNED)
    assert [kind for kind in PINNED if got[kind] != PINNED[kind]] == []


# (interpreter flags, environment) of one fresh process each; the int-to-str
# limit is PYTHONINTMAXSTRDIGITS's to set, 0 meaning none
SETTINGS = {
    "default": ([], {}),
    "PYTHONINTMAXSTRDIGITS=640": ([], {"PYTHONINTMAXSTRDIGITS": "640"}),
    "PYTHONINTMAXSTRDIGITS=0": ([], {"PYTHONINTMAXSTRDIGITS": "0"}),
    "PYTHONHASHSEED=0": ([], {"PYTHONHASHSEED": "0"}),
    "PYTHONHASHSEED=1": ([], {"PYTHONHASHSEED": "1"}),
    "python -O": (["-O"], {}),
}
_UNSET = ("PYTHONINTMAXSTRDIGITS", "PYTHONHASHSEED", "PYTHONOPTIMIZE")


def _cap_memory():
    # a bound that a setting opens would build a power of gigabytes
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _python(flags, extra, args):
    """A fresh interpreter with the flags and environment, on args."""
    env = {k: v for k, v in os.environ.items() if k not in _UNSET}
    env.update(extra, PYTHONPATH=str(TESTS.parent / "src"))
    return subprocess.Popen([sys.executable, *flags, *args], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, preexec_fn=_cap_memory)


def _outcomes(procs, timeout):
    """{name: (exit status, stdout, stderr)} of each process, each given
    timeout seconds; a process still running when one overruns is killed."""
    try:
        outcomes = {}
        for name, proc in procs.items():
            out, err = proc.communicate(timeout=timeout)
            outcomes[name] = proc.returncode, out, err
        return outcomes
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


def test_no_interpreter_setting_moves_a_byte():
    # per setting, the command kinds whose bytes differ from the pins, or
    # the last line of a run that did not finish
    procs = {name: _python(flags, extra, [str(TESTS / "corpus.py")])
             for name, (flags, extra) in SETTINGS.items()}
    moved = {}
    for name, (code, out, err) in _outcomes(procs, 300).items():
        if code:
            moved[name] = [f"exit {code}", *err.strip().splitlines()[-1:]]
            continue
        got = json.loads(out)
        moved[name] = sorted(kind for kind in PINNED | got if got.get(kind) != PINNED.get(kind))
    assert moved == {name: [] for name in SETTINGS}


_TIMED = """
import io, json, time
from contextlib import redirect_stdout
from splitbound.cli import run
out = io.StringIO()
t0 = time.perf_counter()
with redirect_stdout(out):
    code = run(["obstruct", "--mode", "thm13", "--p", "2", "--r", "1000000"])
print(json.dumps([code, out.getvalue(), time.perf_counter() - t0]))
"""


def test_thm13_is_bounded_with_the_interpreter_limit_off():
    # with no int-to-str limit the bound p^(2r-2) is still refused unbuilt
    proc = _python([], {"PYTHONINTMAXSTRDIGITS": "0"}, ["-c", _TIMED])
    status, out, err = _outcomes({"limit 0": proc}, 60)["limit 0"]
    assert status == 0, err[-2000:]
    code, printed, seconds = json.loads(out)
    assert code == 2 and json.loads(printed)["error"]["kind"] == "output-bound"
    assert seconds < 1.0, seconds
