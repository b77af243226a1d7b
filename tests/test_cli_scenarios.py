"""Every scenario file ends solved or rejected with a typed error.

Random scenario files go through ``rld thresholds`` for every policy and a
200-run ``rld benchmark``, each through ``cli.entry`` as the ``rld``
command runs it: the exit code is 0, 2 (validation) or 3 (solver), no
exception escapes (which would be a traceback), no output says nan, and a
run that fails writes no file.  About half of the files read their curve
from a CSV beside them, some of whose rows are short, empty or not
numbers; a few give ``curve_file`` a value that names no file.
"""
import json
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

from click.testing import CliRunner
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from rld.cli import _POLICIES, entry
from conftest import DEFAULT_CURVE

NAN = re.compile(r"\bnan\b", re.IGNORECASE)
LEADS = [h for h, _ in DEFAULT_CURVE]     # every horizon of the curve, falling
CURVE_ROWS = [f"{h},{s}" for h, s in DEFAULT_CURVE]
BAD_ROWS = ["1", "", "x,0.02", "0.1,"]    # short, empty (skipped), non-numeric, empty cell


def curve_csv(rows) -> str:
    return "\n".join(["horizon_hours,sigma", *rows, ""])


def run_rld(args: list[str]) -> tuple[int, str]:
    """Exit code and stdout + stderr of ``rld <args>``; an escaping exception fails."""
    with CliRunner().isolation() as (out, err, _), mock.patch.object(sys, "argv", ["rld", *args]):
        code = entry()
    return code, out.getvalue().decode() + err.getvalue().decode()


@st.composite
def curve_sources(draw):
    """The scenario's curve entry and the text of the curve.csv beside it, or None."""
    kind = draw(st.sampled_from(["inline"] * 5 + ["file"] * 4 + ["no file name"]))
    if kind == "inline":
        return {"curve": DEFAULT_CURVE}, None
    if kind == "no file name":
        return {"curve_file": draw(st.sampled_from([5, None, ["curve.csv"]]))}, None
    rows = list(CURVE_ROWS)
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.sampled_from(BAD_ROWS))
    return {"curve_file": "curve.csv"}, curve_csv(rows)


@st.composite
def scenarios(draw):
    """A scenario document and the text of its curve file, or None."""
    n = draw(st.integers(1, 4))
    leads = sorted(draw(st.lists(st.sampled_from(LEADS), min_size=n, max_size=n,
                                 unique=True)), reverse=True)
    directions = draw(st.lists(st.sampled_from(["buy", "sell"]), min_size=n, max_size=n))
    # buys rise and sells fall toward delivery, every sell below every buy
    buys = iter(sorted(draw(st.lists(st.floats(30.0, 150.0), min_size=n, max_size=n))))
    sells = iter(sorted(draw(st.lists(st.floats(-5.0, 29.0), min_size=n, max_size=n)),
                        reverse=True))
    ladder = [{"lead_time_hours": lead, "direction": way,
               "price": next(buys) if way == "buy" else next(sells)}
              for lead, way in zip(leads, directions)]
    T = draw(st.sampled_from([1, 2, 5, 12]))
    d_hat = draw(st.one_of(st.floats(-1.0, 1.0),
                           st.lists(st.floats(-0.2, 0.2), min_size=T, max_size=T)))
    half = st.sampled_from([0.0, 0.5, 1.0])
    curve, text = draw(curve_sources())
    return {
        "ladder": ladder,
        "voll": draw(st.floats(100.0, 1e5)),
        "storage": {"B": draw(st.one_of(st.sampled_from([0.0, 1e-300]), st.floats(0.0, 0.05))),
                    "mu": draw(half), "nu": draw(half)},
        "T": T,
        "d_hat": d_hat,
        "mean_share": draw(st.sampled_from([0.0, 0.2, 1.0])),
        **curve,
    }, text


SMALL = {"ladder": [{"lead_time_hours": 24.0, "price": 52.0}], "voll": 1000.0,
         "storage": {"B": 0.001}, "T": 5, "d_hat": 0.3, "curve": DEFAULT_CURVE}
NO_CURVE = {key: value for key, value in SMALL.items() if key != "curve"}


# a pinned seed: an unpinned derandomized run is seeded by this function's
# source, so every edit here drew a new set.  Seeds 0-14 took 1.9-28 s on a
# 2-core Xeon (median 4 s); a slow set holds a varied d_hat profile at B = 0
# in a 4-stage ladder (2 s per engine) or at B near 0.05 in the exact
# lattice.  Seed 10 takes about 2.5 s; of its 30 draws 13 have inline
# curves, 11 good curve files and 6 files with a bad row.
@given(case=scenarios())
@seed(10)
@settings(max_examples=30, deadline=None, derandomize=True)
@example(case=({**SMALL, "T": 1e30}, None))          # was a traceback from np.full
@example(case=({**SMALL, "ladder": []}, None))       # an empty ladder
# were tracebacks: float(None) on a short row, Path / a non-string curve_file
@example(case=({**NO_CURVE, "curve_file": "curve.csv"}, curve_csv([*CURVE_ROWS, "1"])))
@example(case=({**NO_CURVE, "curve_file": 5}, None))
@example(case=({**NO_CURVE, "curve_file": None}, None))
@example(case=({**NO_CURVE, "curve_file": ["curve.csv"]}, None))
def test_every_scenario_is_solved_or_rejected(case):
    doc, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        if text is not None:
            (Path(tmp) / "curve.csv").write_text(text)
        runs = [["thresholds", "--engine", policy] for policy in _POLICIES]
        # the thresholds runs solve every policy; the benchmark adds the evaluation
        runs.append(["benchmark", "--runs", "200", "--policy", "3sigma,ct", "--no-timing"])
        for k, args in enumerate(runs):
            out = Path(tmp) / f"out{k}.csv"
            code, printed = run_rld([*args, "--scenario", str(path), "--out", str(out)])
            assert code in (0, 2, 3), (args, code, printed)
            assert code == 0 or not out.exists(), (args, code)
            written = out.read_text() if out.exists() else ""
            assert not NAN.search(printed + written), (args, printed, written)
