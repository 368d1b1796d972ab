"""``--compare A.json B.json``: one verdict per workload × end-to-end metric.

A side is a result file, or one set of it (``FILE#N``).  Its value for a
metric is the median over its sets of each run's reported ``value``, and its
quartiles are those of the run-to-run distribution: taken across the sets
when there are two or more, and otherwise estimated from the one run's
samples as the interquartile range of their median (1.25 × IQR / √n, the
large-sample spread of a median).  The spread of a side is that
interquartile distance as a share of its median.  A row reads:

* ``unresolved`` — either side's spread exceeds the metric's bound and the
  two interquartile ranges overlap (noise wider than the bound decides
  nothing);
* ``worse`` / ``better`` — B is worse / better than A by more than the
  bound (when the spread exceeds the bound: every quartile of B is worse /
  better than every quartile of A);
* ``same`` — otherwise.

A gain smaller than the bound reads ``same``: one run per side estimates
run-to-run noise from within-run samples only, which understates it, so
the bound is the smallest change this table calls.  Claiming a smaller gain
takes more runs: at least ten alternating pairs of parent and change.

Ratios print with their base (the unprofiled iteration time they divide by).
"""

from __future__ import annotations

import json
import math
import statistics
from typing import Dict, List, Optional, Tuple

from .spec import MetricSpec


#: Interquartile range of a sample median per (IQR / √n) of the samples.
MEDIAN_IQR_FACTOR = 1.25


def side_statistics(sets: List[Dict], workload: str,
                    metric: str) -> Optional[Dict[str, float]]:
    """Run-level median and quartiles of one metric (None when absent)."""
    records = [entry["workloads"][workload]["metrics"].get(metric)
               for entry in sets if workload in entry["workloads"]]
    records = [record for record in records
               if record is not None and record.get("value") is not None]
    if not records:
        return None
    values = [record["value"] for record in records]
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        record = records[0]
        median = record["value"]
        half = MEDIAN_IQR_FACTOR * (record["q3"] - record["q1"]) / math.sqrt(record["n"]) / 2
        q1, q3 = median - half, median + half
    stats = {"median": median, "q1": q1, "q3": q3}
    bases = [record["base"]["median"] for record in records if "base" in record]
    if bases:
        stats["base"] = statistics.median(bases)
    return stats


def spread(stats: Dict[str, float]) -> float:
    return (stats["q3"] - stats["q1"]) / abs(stats["median"]) if stats["median"] else 0.0


def verdict(a: Dict[str, float], b: Dict[str, float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(verdict, worsening)`` of B against A; ``worsening`` is signed,
    positive when B is worse, as a share of A's median."""
    # Orient every value so that larger means worse.
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b["median"] - a["median"]) / abs(a["median"]) if a["median"] else 0.0
    a_low, a_high = sorted((sign * a["q1"], sign * a["q3"]))
    b_low, b_high = sorted((sign * b["q1"], sign * b["q3"]))
    noise = max(spread(a), spread(b))
    if noise > bound:
        if b_low > a_high:
            return "worse", worsening
        if b_high < a_low:
            return "better", worsening
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if -worsening > bound:
        return "better", worsening
    return "same", worsening


def _error_rate(sets: List[Dict], workload: str) -> Optional[float]:
    rates = [entry["workloads"][workload]["error_rate"]
             for entry in sets if workload in entry["workloads"]]
    return max(rates) if rates else None


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def compare(a: Dict, b: Dict, metrics: List[MetricSpec]) -> List[Dict[str, object]]:
    """Every workload × metric row (and an ``error_rate`` row per workload)."""
    rows = []
    workloads = [name for name in b["sets"][0]["workloads"]
                 if any(name in entry["workloads"] for entry in a["sets"])]
    for workload in workloads:
        for metric in metrics:
            stats_a = side_statistics(a["sets"], workload, metric.name)
            stats_b = side_statistics(b["sets"], workload, metric.name)
            if stats_a is None or stats_b is None:
                rows.append({"workload": workload, "metric": metric.name,
                             "verdict": "missing"})
                continue
            outcome, worsening = verdict(stats_a, stats_b, metric.better, metric.bound)
            rows.append({"workload": workload, "metric": metric.name,
                         "unit": metric.unit, "bound": metric.bound,
                         "a": stats_a, "b": stats_b, "worsening": worsening,
                         "verdict": outcome})
        rate_a, rate_b = _error_rate(a["sets"], workload), _error_rate(b["sets"], workload)
        rows.append({"workload": workload, "metric": "error_rate", "unit": "fraction",
                     "a": {"median": rate_a}, "b": {"median": rate_b},
                     "verdict": "worse" if (rate_b or 0.0) > (rate_a or 0.0) else "same"})
    return rows


def format_rows(rows: List[Dict[str, object]]) -> str:
    lines = [f"{'workload':<13} {'metric':<18} {'A median [q1, q3]':<30} "
             f"{'B median [q1, q3]':<30} {'change':>8} {'bound':>6}  verdict"]
    for row in rows:
        if row["verdict"] == "missing":
            lines.append(f"{row['workload']:<13} {row['metric']:<18} {'(absent on one side)':<30}")
            continue
        a, b = row["a"], row["b"]
        if row["metric"] == "error_rate":
            lines.append(f"{row['workload']:<13} {'error_rate':<18} {a['median']!s:<30} "
                         f"{b['median']!s:<30} {'':>8} {'any':>6}  {row['verdict']}")
            continue
        sides = []
        for stats in (a, b):
            text = (f"{_fmt(stats['median'])} {row['unit']} "
                    f"[{_fmt(stats['q1'])}, {_fmt(stats['q3'])}]")
            if "base" in stats:
                text += f" (base {_fmt(stats['base'])} ms)"
            sides.append(text)
        lines.append(f"{row['workload']:<13} {row['metric']:<18} {sides[0]:<30} "
                     f"{sides[1]:<30} {row['worsening']:>+8.2%} {row['bound']:>6}  "
                     f"{row['verdict']}")
    return "\n".join(lines)


def load_result(argument: str) -> Dict:
    """A result file, or only its set N when written ``FILE#N``."""
    path, marker, index = argument.rpartition("#")
    if not marker or not index.isdigit():
        path, index = argument, ""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or not data.get("sets"):
        raise ValueError(f"{path!r} is not a repro.bench result (no 'sets')")
    if index:
        if int(index) >= len(data["sets"]):
            raise ValueError(f"{path!r} has {len(data['sets'])} set(s), no set {index}")
        data = dict(data, sets=[data["sets"][int(index)]])
    return data
