"""The command-line contract on seeded argvs drawn from the parser: every
run ends with exit status 0 and only ``warning:`` lines on stderr, or with
exit status 2 and exactly one ``error:`` line, after any warnings; never a
traceback or a numpy warning.

Flags and their kinds are read from ``cli.build_parser()``, so a flag added
to ``cli.COMMANDS`` is drawn without editing this file.
"""

import argparse
import contextlib
import io
import json
import os
import re
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modwave import cli

#: edge values for every number a flag takes
NUMBERS = ["0", "-0.0", "-1", "5e-324", "1e-300", "1e8", "1e154", "1e200", "1.7e308", "nan", "inf"]
SYMBOLS = ["bbm", "boussinesq", "whitham", "fractional"]
EXPRS = ["tanh(k)/k", "1+abs(k)^alpha", "1-k^2", "exp(-k)"]
#: the config file a drawn --config names: the flags override its values
CONFIG = {"equation": "bbm", "symbol": {"builtin": "bbm"}}
#: the largest size a drawn run may take, so that each run stays small
N_MODES_CAP = 32
STEPS_CAP = 200


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _values(action: argparse.Action) -> st.SearchStrategy[list[str]]:
    """The argument words of one occurrence of a flag."""
    number = st.sampled_from(NUMBERS)
    if action.dest == "only":  # validate runs only where nothing matches
        return st.just(["zzz"])
    if action.dest == "config":
        return st.just(["run.json"])
    if action.choices:
        return st.sampled_from(sorted(action.choices)).map(lambda choice: [choice])
    if action.nargs == 2:
        return st.lists(number, min_size=2, max_size=2)
    if action.type is float:
        return number.map(lambda value: [value])
    if action.type is int:
        cap = N_MODES_CAP if action.dest == "n_modes" else (
            STEPS_CAP if action.dest.endswith("_steps") else None)
        size = st.sampled_from([0, -1, 10**8]) | st.integers(1, cap or STEPS_CAP)
        return size.map(lambda n: [str(n if cap is None else min(n, cap))])
    return st.just([f"{action.dest}.out"])  # a path, inside the run's directory


#: the flags that declare the symbol, drawn together as one of SYMBOL_FLAGS
SYMBOL_DESTS = {"symbol", "alpha", "expr", "param"}
SYMBOL_FLAGS = st.one_of(
    st.just([]),
    st.sampled_from(SYMBOLS).map(lambda name: ["--symbol", name]),
    st.sampled_from(NUMBERS).map(lambda value: ["--symbol", "fractional", "--alpha", value]),
    st.builds(lambda expr, values: ["--expr", expr, *(word for value in values
                                                      for word in ("--param", f"alpha={value}"))],
              st.sampled_from(EXPRS), st.lists(st.sampled_from(NUMBERS), max_size=2)),
)


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_subparsers())))
    argv = [command]
    for action in _subparsers()[command]._actions:
        if not action.option_strings or action.dest in SYMBOL_DESTS | {"help"}:
            continue
        if action.dest == "only" or draw(st.booleans()):
            argv += [action.option_strings[-1], *draw(_values(action))]
    if "symbol" in {action.dest for action in _subparsers()[command]._actions}:
        argv += draw(SYMBOL_FLAGS)
    return argv


@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_run_exits_0_with_warnings_or_2_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "run.json"), "w", encoding="utf-8") as fh:
            json.dump(CONFIG, fh)
        # every file a run reads or writes is in its directory
        argv = [os.path.join(tmp, word) if word.endswith((".json", ".out")) else word
                for word in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
    lines = err.getvalue().splitlines()
    warned = [line for line in lines if line.startswith("warning: ")]
    if code == 0:
        assert warned == lines, argv
    else:
        assert code == 2 and lines, argv
        assert warned == lines[:-1] and re.fullmatch(r"error: .+", lines[-1]), argv
