"""``run.py --compare A.json B.json``: did B get worse than A?

Both files come from ``run.py --runs N --out FILE``.  For every workload
× end-to-end metric the two sides' medians and quartiles are printed
with a verdict under the bound BENCHMARK.json fixes for that metric:

``ok``          B's median is no worse than A's by more than the bound;
``regression``  it is;
``unresolved``  either side's own spread (quartile distance over the
                median) exceeds the bound, so the bound cannot be read
                off these runs — unless every run of B beats every run
                of A, which is then ``improved``.

Exit code 1 if any row is a regression or unresolved.
"""

import json
import statistics

import harness


def load(path):
    """``{workload: {metric: [values...]}}`` of the untraced runs."""
    with open(path) as fh:
        runs = json.load(fh)["runs"]
    table = {}
    for run in runs:
        if run["trace"]:
            continue
        per = table.setdefault(run["workload"], {})
        for name, m in run["result"]["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return table


def quartiles(values):
    """``(q1, median, q3)``; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def verdict(a, b, better, bound):
    """Verdict and the signed share by which B is worse (+) or better (-)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = (med_b - med_a) / med_a
    if better == "higher":
        worse = -worse
        all_better = min(b) > max(a)
    else:
        all_better = max(b) < min(a)
    if max(spread(a), spread(b)) > bound:
        return ("improved" if all_better else "unresolved"), worse
    return ("regression" if worse > bound else "ok"), worse


def main(path_a, path_b):
    spec = harness.load_spec()
    a_tab, b_tab = load(path_a), load(path_b)
    bad = 0
    print(f"{'workload':<11} {'metric':<13} {'unit':<5} "
          f"{'A q1 / median / q3':>36} {'B q1 / median / q3':>36} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for wl in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            a = a_tab.get(wl, {}).get(m["name"])
            b = b_tab.get(wl, {}).get(m["name"])
            if not a or not b:
                print(f"{wl:<11} {m['name']:<13} missing from "
                      f"{path_a if not a else path_b}")
                bad += 1
                continue
            word, worse = verdict(a, b, m["better"], m["bound"])
            bad += word in ("regression", "unresolved")
            cells = ["{:.5g} / {:.5g} / {:.5g}".format(*quartiles(v))
                     for v in (a, b)]
            print(f"{wl:<11} {m['name']:<13} {m['unit']:<5} "
                  f"{cells[0]:>36} {cells[1]:>36} "
                  f"{worse:>+9.1%} {m['bound']:>6.0%}  {word}"
                  f"  (n={len(a)},{len(b)})")
    print("no regression, nothing unresolved" if not bad
          else f"{bad} row(s) regressed or unresolved")
    return 1 if bad else 0
