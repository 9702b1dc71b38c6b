"""Minimal LP-format reader and a HiGHS solve bridge.

The reader targets the dialect written by :func:`vrpdr.milp.export_lp`
(one constraint per line), which is enough for round-trip checks and for
handing exported models to an external MILP solver.  A constraint line
splits at its last ``=`` into terms and sense/rhs; the terms are split on
whitespace and read as ``sign coef name`` triples, never matching a
pattern per term.  A bounds line is matched by one pattern.  Every
malformed line, number included, raises :class:`LpParseError`.  The solve
bridge goes through ``scipy.optimize.milp`` (HiGHS), giving an independent
optimization path that never touches the in-package model structures; it
hands HiGHS a constraint matrix built from NumPy arrays, not per-term
appends, with columns in :meth:`ParsedLp.variable_names` order.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Tuple

from .core import VrpdrError


class LpParseError(VrpdrError):
    pass


@dataclass
class ParsedLp:
    objective: List[Tuple[float, str]] = field(default_factory=list)
    constraints: List[Tuple[str, List[Tuple[float, str]], str, float]] = field(default_factory=list)
    bounds: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    binaries: List[str] = field(default_factory=list)

    def variable_names(self) -> list:
        """Every variable once, in order of first appearance: objective,
        constraints, bounds, then binaries."""
        return list(
            dict.fromkeys(
                chain(
                    [name for _, name in self.objective],
                    [name for _, terms, _, _ in self.constraints for _, name in terms],
                    self.bounds,
                    self.binaries,
                )
            )
        )


_BOUNDS = re.compile(r"(\S+)\s*<=\s*(\S+)\s*<=\s*(\S+)$")


def _number(token: str, where: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise LpParseError(f"bad number {token!r} in {where}") from None


def _parse_terms(tokens: list, where: str) -> list:
    """``sign coef name`` triples from whitespace-split tokens; ``0`` alone is empty."""
    if len(tokens) % 3:
        if tokens == ["0"]:
            return []
        raise _bad_terms(tokens, where)
    terms = []
    it = iter(tokens)
    try:
        for sign, num, name in zip(it, it, it):
            if sign == "+":
                terms.append((float(num), name))
            elif sign == "-":
                terms.append((-float(num), name))
            else:
                raise _bad_terms(tokens, where)
    except ValueError:
        raise LpParseError(f"bad number {num!r} in {where}") from None
    return terms


def _bad_terms(tokens: list, where: str) -> LpParseError:
    """The error for a term list that is not ``sign coef name`` triples."""
    signs = tokens[0::3]
    pos = next(
        (3 * i for i, sign in enumerate(signs) if sign != "+" and sign != "-"),
        len(tokens) - len(tokens) % 3,
    )
    return LpParseError(f"cannot parse terms in {where}: {' '.join(tokens[pos:])[:40]!r}")


def _constraint(line: str, name: str, rest: str) -> tuple:
    """(name, terms, sense, rhs) of a constraint line split at its colon.

    Every sense ends in ``=`` and the rhs holds none, so the line splits at
    its last ``=``; a ``<`` or ``>`` right before it widens the sense.
    """
    name = name.strip()
    where = f"constraint {name}"
    head, eq, tail = rest.rpartition("=")
    rhs = tail.split()
    if not eq or len(rhs) != 1 or "<" in tail or ">" in tail:
        raise LpParseError(f"constraint without sense/rhs: {line!r}")
    sense = "="
    if head[-1:] in ("<", ">"):
        sense = head[-1] + "="
        head = head[:-1]
    return name, _parse_terms(head.split(), where), sense, _number(rhs[0], where)


def _bounds(line: str):
    """(name, lower, upper) of a ``lo <= name <= hi`` line."""
    m = _BOUNDS.match(line)
    if not m:
        raise LpParseError(f"unsupported bounds line: {line!r}")
    lo, name, hi = m.groups()
    where = f"bounds of {name}"
    lo_v = float("-inf") if lo.lstrip("+-") == "inf" else _number(lo, where)
    hi_v = float("inf") if hi.lstrip("+-") == "inf" else _number(hi, where)
    return name, lo_v, hi_v


_SECTIONS = {
    "minimize": "objective",
    "subject to": "constraints",
    "bounds": "bounds",
    "binaries": "binaries",
    "binary": "binaries",
    "end": None,
}


def parse_lp(text: str) -> ParsedLp:
    """Read the dialect :func:`vrpdr.milp.export_lp` writes into a :class:`ParsedLp`.

    Raises :class:`LpParseError` on a maximization, a constraint without a
    name or without sense and rhs, a malformed term, a number that does not
    parse (naming its constraint), a bounds line other than
    ``lo <= name <= hi`` and content outside any section.
    """
    parsed = ParsedLp()
    constraints = parsed.constraints
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line[0] == "\\":
            continue
        name, colon, rest = line.partition(":")
        if colon and section == "constraints":  # no section keyword has a colon
            constraints.append(_constraint(line, name, rest))
            continue
        low = line.lower()
        if low in _SECTIONS:
            section = _SECTIONS[low]
            continue
        if low == "maximize":
            raise LpParseError("only minimization models are supported")
        if section == "constraints":
            raise LpParseError(f"constraint line without a name: {line!r}")
        if section == "objective":
            parsed.objective.extend(_parse_terms((rest if colon else line).split(), "objective"))
        elif section == "bounds":
            name, lo, hi = _bounds(line)
            parsed.bounds[name] = (lo, hi)
        elif section == "binaries":
            parsed.binaries.extend(line.split())
        else:
            raise LpParseError(f"content outside any section: {line!r}")
    return parsed


def _quiet_milp(*args, **kwargs):
    """``scipy.optimize.milp`` with file descriptor 1 on ``os.devnull``, so
    HiGHS's diagnostics (``HighsMipSolverData::transformNewIntegerFeasibleSolution``
    on some n = 5 models) stay out of the caller's output."""
    from scipy.optimize import milp

    sys.stdout.flush()
    saved = os.dup(1)
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return milp(*args, **kwargs)
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def solve_lp_text(text: str, time_limit: float = None):
    """Solve an exported LP with HiGHS via scipy; returns (objective, values).

    HiGHS runs with a relative gap of 0.  Binaries come back as exact 0 or
    1, and the objective is the one at that integer point.  Raises
    :class:`LpParseError` on malformed input and ``RuntimeError`` when the
    solver does not prove optimality.
    """
    import numpy as np
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint

    parsed = parse_lp(text)
    names = parsed.variable_names()
    index = {n: i for i, n in enumerate(names)}
    n = len(names)
    c = np.zeros(n)
    for coef, name in parsed.objective:
        c[index[name]] += coef

    # COO triplets as arrays, one row number per term, rows expanded by length
    rows = [terms for _, terms, _, _ in parsed.constraints]
    terms = list(chain.from_iterable(rows))
    row_index = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
    cols = np.array([index[name] for _, name in terms], dtype=np.int64)
    vals = np.array([coef for coef, _ in terms], dtype=float)
    A = sparse.csr_matrix((vals, (row_index, cols)), shape=(len(rows), n))
    lo_c = [-np.inf if sense == "<=" else rhs for _, _, sense, rhs in parsed.constraints]
    hi_c = [np.inf if sense == ">=" else rhs for _, _, sense, rhs in parsed.constraints]

    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    integrality = np.zeros(n)
    for name, (lo, hi) in parsed.bounds.items():
        lower[index[name]] = lo
        upper[index[name]] = hi
    binary = [index[name] for name in parsed.binaries]
    lower[binary] = 0.0
    upper[binary] = 1.0
    integrality[binary] = 1

    options = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = time_limit
    constraints = LinearConstraint(A, np.array(lo_c), np.array(hi_c))
    res = _quiet_milp(
        c, constraints=constraints, bounds=Bounds(lower, upper),
        integrality=integrality, options=options,
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not reach optimality: {res.message}")
    rounded = np.round(res.x[binary])
    if np.any(res.x[binary] != rounded):
        # HiGHS accepts a binary within its integrality tolerance, 1e-6, and
        # reports the objective at that point: a cost coefficient times
        # 1 - 3.4e-7 put n = 5 seed 565 2e-6 below its integer point.  The
        # binaries are fixed at their integers and the rest is solved again.
        lower[binary] = upper[binary] = rounded
        res = _quiet_milp(c, constraints=constraints, bounds=Bounds(lower, upper), options=options)
        if res.status != 0:
            raise RuntimeError(f"HiGHS's answer does not round to a feasible point: {res.message}")
    values = dict(zip(names, res.x.tolist()))
    return float(res.fun), values
