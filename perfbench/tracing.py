"""Spans around boolfn's public entry points, recorded from outside the program.

install() replaces each traced function with a wrapper under every name a
caller looks it up by: the defining module, each module that imported it
by name, and the package.  Methods are replaced on their class.  A wrapper
records one span (name, start, end, parent span, operation id) in compact
arrays and keeps per-name self time on the fly: a span's duration minus the
time covered by its direct children.  The program is single-threaded, so
spans nest and one stack is enough.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from array import array
from collections import Counter

import numpy as np

SPAN_CAPACITY = 1 << 18  # spans kept for the trace file; self times cover all of them

PARSE = ("truthtable.from_hex", "truthtable.from_bitstring")
STRUCTURAL = ("truthtable.halves", "truthtable.complement", "truthtable.reverse", "truthtable.concat")
REDUCE = ("spectral.max_abs", "spectral.max_abs_index", "spectral.spectrum_nonlinearity")
# Spans whose self time is whatever their body does outside the other spans
# (argparse, weight, to_dict, JSON): time no named layer accounts for.
CATCH_ALL = ("cli.main", "cli.analyze_table", "majority.report")


class Tracer:
    def __init__(self):
        self.op = -1
        self.names: list[str] = []
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counts: Counter = Counter()
        self.spans = 0
        self._stack: list[list] = []  # [span id, name id, child seconds]
        self._cols = {
            "id": array("q"), "name": array("H"), "start": array("d"),
            "end": array("d"), "parent": array("q"), "op": array("q"),
        }

    def wrap(self, name: str, fn, after=None):
        """Traced version of fn.  after(args, result, parent_name) updates
        counters once the span has ended."""
        nid = len(self.names)
        self.names.append(name)
        self.self_s.append(0.0)
        self.calls.append(0)
        stack, clock, cols, names = self._stack, time.perf_counter, self._cols, self.names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self.spans, nid, 0.0]
            self.spans += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[nid] += duration - frame[2]
                self.calls[nid] += 1
                if parent is not None:
                    parent[2] += duration
                if frame[0] < SPAN_CAPACITY:
                    cols["id"].append(frame[0])
                    cols["name"].append(nid)
                    cols["start"].append(start)
                    cols["end"].append(end)
                    cols["parent"].append(parent[0] if parent else -1)
                    cols["op"].append(self.op)
            if after is not None:
                after(args, result, names[parent[1]] if parent else None)
            return result

        return traced

    def totals(self) -> tuple[dict, dict]:
        """(self seconds by span name, calls by span name)."""
        return dict(zip(self.names, self.self_s)), dict(zip(self.names, self.calls))

    def save(self, path) -> None:
        """Write the kept spans as columns, in the order they ended.  Span ids
        count up in start order; a root span has parent -1."""
        cols = {k: np.frombuffer(v, dtype=v.typecode) for k, v in self._cols.items()}
        np.savez(path, names=np.array(self.names), dropped=self.spans - len(cols["id"]), **cols)


def install(tracer: Tracer, boolfn) -> None:
    """Wrap the entry points each layer exposes; boolfn is the imported package."""
    # boolfn.majority is the function; the module has to come from importlib
    anf, cli, majority, spectral, truthtable = (
        importlib.import_module(f"boolfn.{m}") for m in ("anf", "cli", "majority", "spectral", "truthtable")
    )
    counts = tracer.counts

    def parsed(args, result, parent):
        if parent not in PARSE:
            counts["parse_calls"] += 1
            counts["parse_chars"] += len(args[0])

    def transformed(args, result, parent):
        n, values = args[0].n, result.values
        counts["walsh_points"] += values.size
        counts["butterfly_ops"] += n * values.size
        counts["bytes_computed"] += 2 * n * values.nbytes
        counts["max_buffer_bytes"] = max(counts["max_buffer_bytes"], values.nbytes)

    def rendered(args, result, parent):
        counts["monomials"] += args[0].coeffs.bit_count()

    def built(args, result, parent):
        counts["build_points"] += 1 << args[0]

    functions = [
        ("truthtable.from_hex", truthtable, "from_hex", (cli, boolfn), parsed),
        ("truthtable.from_bitstring", truthtable, "from_bitstring", (cli, boolfn), parsed),
        ("truthtable.concat", truthtable, "concat", (majority, boolfn), None),
        ("spectral.walsh_transform", spectral, "walsh_transform", (cli, majority, boolfn), transformed),
        ("spectral.small_weight_check", spectral, "check_weight_equals_nonlinearity", (cli, boolfn), None),
        ("spectral.oracle", spectral, "brute_force_nonlinearity", (majority, boolfn), None),
        ("anf.to_anf", anf, "to_anf", (cli, boolfn), None),
        ("majority.build", majority, "majority", (cli, boolfn), built),
        ("majority.report", majority, "majority_report", (cli, boolfn), None),
        ("cli.analyze_table", cli, "analyze_table", (), None),
        ("cli.main", cli, "main", (), None),
    ]
    for name, home, attr, importers, after in functions:
        traced = tracer.wrap(name, getattr(home, attr), after)
        for module in (home, *importers):
            setattr(module, attr, traced)

    methods = [
        ("truthtable.halves", truthtable.TruthTable, "halves", None),
        ("truthtable.complement", truthtable.TruthTable, "complement", None),
        ("truthtable.reverse", truthtable.TruthTable, "reverse", None),
        ("spectral.max_abs", spectral.WalshSpectrum, "max_abs", None),
        ("spectral.max_abs_index", spectral.WalshSpectrum, "max_abs_index", None),
        ("spectral.spectrum_nonlinearity", spectral.WalshSpectrum, "nonlinearity", None),
        ("anf.degree", anf.AnfTable, "degree", None),
        ("anf.render", anf.AnfTable, "render", rendered),
    ]
    for name, cls, attr, after in methods:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), after))


def layer_metrics(tracer: Tracer, ops: int, op_seconds: list[float], output_bytes: int) -> dict:
    """Per-layer values, per operation where the unit says /op.  Idle layers read 0."""
    self_s, calls = tracer.totals()
    c = tracer.counts

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names) / ops

    def n(*names):
        return sum(calls.get(x, 0) for x in names) / ops

    def rate(num, den):
        return num / den if den else 0.0

    parse_s = s(*PARSE) * ops
    walsh_s = s("spectral.walsh_transform") * ops
    render_s = s("anf.render") * ops
    return {
        "truthtable.parse_s": s(*PARSE),
        "truthtable.parse_calls": c["parse_calls"] / ops,
        "truthtable.parse_chars_per_s": rate(c["parse_chars"], parse_s),
        "truthtable.structural_s": s(*STRUCTURAL),
        "truthtable.structural_calls": n(*STRUCTURAL),
        "spectral.walsh_transform_s": s("spectral.walsh_transform"),
        "spectral.walsh_transform_calls": n("spectral.walsh_transform"),
        "spectral.walsh_points": c["walsh_points"] / ops,
        "spectral.butterfly_ops": c["butterfly_ops"] / ops,
        "spectral.bytes_computed": c["bytes_computed"] / ops,
        "spectral.ops_per_byte": rate(c["butterfly_ops"], c["bytes_computed"]),
        "spectral.butterfly_ops_per_s": rate(c["butterfly_ops"], walsh_s),
        "spectral.max_buffer_bytes": c["max_buffer_bytes"],
        "spectral.reduce_s": s(*REDUCE),
        "spectral.small_weight_check_s": s("spectral.small_weight_check"),
        "spectral.oracle_s": s("spectral.oracle"),
        "spectral.oracle_calls": n("spectral.oracle"),
        "anf.to_anf_s": s("anf.to_anf"),
        "anf.to_anf_calls": n("anf.to_anf"),
        "anf.degree_s": s("anf.degree"),
        "anf.render_s": s("anf.render"),
        "anf.monomials_emitted": c["monomials"] / ops,
        "anf.render_monomials_per_s": rate(c["monomials"], render_s),
        "majority.build_s": s("majority.build"),
        "majority.build_calls": n("majority.build"),
        "majority.build_points": c["build_points"] / ops,
        "majority.report_self_s": s("majority.report"),
        "cli.main_self_s": s("cli.main"),
        "cli.analyze_table_self_s": s("cli.analyze_table"),
        "cli.output_bytes": output_bytes / ops,
        "trace.op_p50_ms": 1000 * statistics.median(op_seconds),
        "trace.attributed_share": rate(
            sum(t for name, t in self_s.items() if name not in CATCH_ALL), sum(op_seconds)
        ),
    }
