"""Output checks on the end-of-run summary that `socrm run` prints.

Three layers of checking, all on every repetition:
  * an independent oracle replays the paper's rule table (faces -> FFT
    configuration, action kind, partial-bitstream overhead, generation) over
    the generated inputs and compares it with the printed action log, and
    checks every PL event's MSE against `fixed_point_mse_bound(N)`;
  * repetitions of one seed, traced or not, must print the same normalized
    record (`record`), and traced repetitions the same `fft_fixed` hash;
  * for the default seed the record must match the committed golden: action
    log, dwell/energy and totals exactly, MSE within `MSE_REL_TOL` (the
    summary prints 4 significant digits; the tolerance also lets a float
    reference of different rounding pass), and the `fft_fixed` hash exactly.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass

from socrm.fft_engines import fixed_point_mse_bound

MSE_REL_TOL = 2e-3

RULES = {0: ("APU", 8), 1: ("APU", 1024), 2: ("PL", 2048), 3: ("PL", 4096)}
PARTIAL_BITSTREAM_OVERHEAD_US = 10000

_ACTION = re.compile(
    r"event seq=(\d+) faces=(\d+) t=(\d+)us -> (\w+) \('(\w+)', (\d+)\) -> "
    r"\('(\w+)', (\d+)\) overhead=(\d+)us(?: mse=(\S+))?$")


@dataclass
class Summary:
    actions: list   # (seq, faces, t_us, kind, from_config, to_config, overhead_us, mse|None)
    dwell: list     # dwell/energy section lines
    totals: dict    # totals section, "key: value" lines


def parse_summary(text: str) -> Summary:
    actions, dwell, totals = [], [], {}
    section = None
    for line in text.splitlines():
        if line.startswith("== "):
            section = line
            continue
        if section == "== action log ==":
            m = _ACTION.match(line)
            if m is None:
                raise ValueError(f"unparsable action line: {line!r}")
            seq, faces, t, kind, fd, fp, td, tp, overhead, err = m.groups()
            actions.append((int(seq), int(faces), int(t), kind, (fd, int(fp)), (td, int(tp)),
                            int(overhead), None if err is None else float(err)))
        elif section == "== dwell / energy ==":
            dwell.append(line)
        elif section == "== totals ==" and line.startswith("malformed lines"):
            for part in line.split(", "):
                key, value = part.split(": ")
                totals[key] = value
        elif section == "== totals ==":
            key, _, value = line.partition(": ")
            totals[key] = value
    if section != "== totals ==":
        raise ValueError("summary is incomplete: no totals section")
    return Summary(actions, dwell, totals)


def oracle_problems(summary: Summary, faces: list, mechanism: str) -> list[str]:
    """Compare the printed action log with the rule table applied to the inputs."""
    problems = []
    state, generation = RULES[0], 0
    for seq, count, _, kind, frm, to, overhead, err in summary.actions:
        if not 1 <= seq <= len(faces) or faces[seq - 1] != count:
            problems.append(f"seq={seq}: faces {count} was never sent with this seq")
            break
        target = RULES[min(count, 3)]
        migrate, scale = state[0] != target[0], state[1] != target[1]
        want_kind = ("MigrateAndScale" if migrate and scale else "MigrateOnly" if migrate
                     else "ScaleOnly" if scale else "NoOp")
        want_overhead = (PARTIAL_BITSTREAM_OVERHEAD_US
                         if mechanism == "partial-bitstream" and migrate and target[0] == "PL"
                         else 0)
        if (kind, frm, to, overhead) != (want_kind, state, target, want_overhead):
            problems.append(f"seq={seq}: got {kind} {frm}->{to} +{overhead}us, want "
                            f"{want_kind} {state}->{target} +{want_overhead}us")
            break
        if (err is not None) != (target[0] == "PL"):
            problems.append(f"seq={seq}: MSE {'missing on PL' if err is None else 'on APU'}")
            break
        if err is not None and not err <= fixed_point_mse_bound(target[1]):
            problems.append(f"seq={seq}: MSE {err} above fixed_point_mse_bound({target[1]})")
        generation += kind != "NoOp"
        state = target

    totals = summary.totals
    decided = len(summary.actions)
    expect = {"events processed": str(decided),
              "reconfigurations applied": str(generation),
              "final state": f"{state} gen={generation}"}
    for key, value in expect.items():
        if totals.get(key) != value:
            problems.append(f"totals: {key!r} is {totals.get(key)!r}, want {value!r}")
    seqs = [a[0] for a in summary.actions]
    if seqs != sorted(set(seqs)):
        problems.append("action log seq is not strictly increasing")
    return problems


def record(summary: Summary) -> dict:
    """What must repeat exactly across repetitions of a seed, MSE aside.

    Action-log times are taken relative to the first event, because a live run
    stamps CLOCK_MONOTONIC due times; dwell and energy are sums of differences
    of those times and need no normalization.
    """
    t0 = summary.actions[0][2] if summary.actions else 0
    log = hashlib.sha256()
    for seq, count, t, kind, frm, to, overhead, _ in summary.actions:
        log.update(f"{seq} {count} {t - t0} {kind} {frm} {to} {overhead}\n".encode())
    return {"log_sha256": log.hexdigest(),
            "mse": [a[7] for a in summary.actions if a[7] is not None],
            "dwell": summary.dwell,
            "totals": summary.totals}


def record_problems(got: dict, want: dict, what: str) -> list[str]:
    problems = []
    for key in ("log_sha256", "dwell", "totals"):
        if got[key] != want[key]:
            problems.append(f"{what}: {key} differs")
    if len(got["mse"]) != len(want["mse"]):
        problems.append(f"{what}: {len(got['mse'])} PL MSE values, want {len(want['mse'])}")
    else:
        for i, (a, b) in enumerate(zip(got["mse"], want["mse"])):
            if abs(a - b) > MSE_REL_TOL * abs(b):
                problems.append(f"{what}: PL event #{i} MSE {a} differs from {b}")
                break
    return problems


def load_golden(path) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None
