"""Output checks made after every round, with the benchmark's own code.

Each check reads the files a finished pipeline run left in its output
directory and recomputes what it can without netsel: label positives from
the event log and rules, network weights from the stored training matrix
with dense numpy, Kendall's tau with scipy. A check returns None when it
passes and a one-line reason when it fails.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

EVAL_ROLES = ("validation", "testing")
# a coin's precision on n predicted positives may stray this many binomial
# standard deviations from 0.5 before the check fails
COIN_SIGMAS = 5.0


# --- reading the program's files -------------------------------------------

def read_batches(out_dir: Path) -> list[tuple]:
    """(config_key, partition, node, target, predicted, actual) rows."""
    rows = []
    with open(out_dir / "batches.tsv") as fh:
        fh.readline()
        for line in fh:
            key, part, node, target, pred, actual, _ = \
                line.rstrip("\n").split("\t")
            rows.append((key, part, int(node), target, int(pred),
                         int(actual)))
    return rows


def key_fields(key: str) -> dict:
    return dict(part.partition("=")[::2] for part in key.split("|"))


def family_of(key: str) -> str:
    f = key_fields(key)
    return f"{f['model']}-{f['measure']}-{f['density']}"


def read_network(path: Path) -> tuple[dict, np.ndarray, np.ndarray,
                                      np.ndarray]:
    """Provenance header and (src, dst, weight) columns of an edge file."""
    with open(path) as fh:
        header = json.loads(fh.readline()[2:])
        body = np.loadtxt(fh, ndmin=2)
    if body.size == 0:
        body = np.empty((0, 3))
    return (header, body[:, 0].astype(np.int64), body[:, 1].astype(np.int64),
            body[:, 2])


def training_matrix(out_dir: Path) -> np.ndarray:
    """The stored training partition as a dense node x item array."""
    blob = np.load(out_dir / "dataset" / "dataset.npz")
    n, m = len(blob["node_ids"]), len(blob["item_ids"])
    dense = np.zeros((n, m))
    indptr = blob["training_indptr"]
    rows = np.repeat(np.arange(n), np.diff(indptr))
    dense[rows, blob["training_indices"]] = blob["training_data"]
    return dense


def file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- expected label positives ---------------------------------------------

def positives_from_events(events: np.ndarray, rules: list[dict]) -> dict:
    """Label positives per evaluation partition, summed over rules.

    Partitions are the equal-frequency time windows at the 1/3 and 2/3
    points of the log, validation first, training second, testing last;
    values are summed per (node, item) within a window.
    """
    stamps = np.sort(events[:, 3])
    t1, t2 = stamps[len(stamps) // 3], stamps[(2 * len(stamps)) // 3]
    windows = {"validation": events[:, 3] < t1,
               "training": (events[:, 3] >= t1) & (events[:, 3] < t2),
               "testing": events[:, 3] >= t2}
    out = {}
    for role in EVAL_ROLES:
        ev = events[windows[role]]
        pairs, inv = np.unique(ev[:, :2], axis=0, return_inverse=True)
        sums = np.bincount(inv.ravel(), weights=ev[:, 2])
        total = 0
        for rule in rules:
            ok = np.isin(pairs[:, 1], rule["items"]) \
                & (sums >= rule["min_value"])
            _, per_node = np.unique(pairs[ok, 0], return_counts=True)
            total += int((per_node >= rule["min_count"]).sum())
        out[role] = total
    return out


def positives_from_matrices(out_dir: Path) -> dict:
    """Label positives per evaluation partition from the stored partition
    matrices and rules (for synthetic data, whose events are generated
    inside the program)."""
    blob = np.load(out_dir / "dataset" / "dataset.npz")
    rules = json.loads((out_dir / "dataset" / "rules.json").read_text())
    item_col = {int(v): c for c, v in enumerate(blob["item_ids"])}
    out = {}
    for role in EVAL_ROLES:
        indptr = blob[f"{role}_indptr"]
        rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        cols = blob[f"{role}_indices"]
        vals = blob[f"{role}_data"]
        total = 0
        for rule in rules:
            wanted = [item_col[i] for i in rule["items"] if i in item_col]
            ok = np.isin(cols, wanted) & (vals >= rule["min_value"])
            per_node = np.bincount(rows[ok], minlength=len(indptr) - 1)
            total += int((per_node >= rule["min_count"]).sum())
        out[role] = total
    return out


# --- the checks -----------------------------------------------------------

def check_audit(out_dir: Path, **_) -> str | None:
    m = json.loads((out_dir / "manifest.json").read_text())
    if m["audit_assertions"] <= 0 or m["audit_violations"] != 0:
        return (f"audit assertions {m['audit_assertions']}, "
                f"violations {m['audit_violations']}")
    return None


def check_tau(out_dir: Path, **_) -> str | None:
    """selection.csv tau and tau_p against scipy on results.csv."""
    cells: dict[tuple, list] = {}
    with open(out_dir / "results.csv") as fh:
        for row in csv.DictReader(fh):
            f = key_fields(row["config_key"])
            cells.setdefault((f["task"], f["clf"]), []).append(
                (float(row["precision_validation"]),
                 float(row["precision_testing"])))
    with open(out_dir / "selection.csv") as fh:
        selected = {(r["task"], r["clf"]): r for r in csv.DictReader(fh)}
    want = {cell for cell, pairs in cells.items() if len(pairs) >= 2}
    if set(selected) != want:
        return f"selection cells {sorted(selected)} != {sorted(want)}"
    for cell, row in selected.items():
        val, test = zip(*cells[cell])
        if len(val) > 2:
            res = stats.kendalltau(val, test, method="asymptotic")
            tau, p = res.statistic, res.pvalue
        else:
            # scipy's asymptotic variance divides by n - 2; at n = 2 the
            # statistic is the sign agreement and var(C - D) is 1
            tau = float(np.sign(val[1] - val[0]) * np.sign(test[1] - test[0]))
            p = 2.0 * stats.norm.sf(1.0) if tau else math.nan
        if math.isnan(p):  # a tied or constant input: the program says (0, 1)
            tau, p = 0.0, 1.0
        got_tau, got_p = float(row["tau"]), float(row["tau_p"])
        if abs(got_tau - tau) > 1e-6 or \
                not math.isclose(got_p, p, rel_tol=1e-5, abs_tol=1e-300):
            return (f"{cell}: tau {got_tau} p {got_p}, "
                    f"scipy {tau:.6f} {p:.6g}")
    return None


def check_networks(out_dir: Path, seed: int, **_) -> str | None:
    """Sampled edge weights equal a dense INT / INT-N recomputation; TH
    has its budgeted edge count and KNN links each sampled node to its
    top-k peers (ties to the lower id)."""
    X = training_matrix(out_dir)
    n = X.shape[0]
    rng = np.random.default_rng([seed, 17])
    sample = rng.choice(n, size=min(n, 12), replace=False)
    support = (X > 0).astype(np.float64)
    co_supported = int(np.count_nonzero(np.triu(support @ support.T, 1)))
    for path in sorted((out_dir / "networks").glob("*.tsv")):
        head, src, dst, w = read_network(path)
        directed = head["model"] == "KNN"
        budget = n * (n - 1) if directed else n * (n - 1) // 2
        lam = max(1, int(math.floor(head["density"] * budget + 0.5)))
        if not directed and len(src) != min(lam, co_supported):
            return f"{path.name}: {len(src)} edges, budget {lam}"
        k = lam // n
        for u in sample:
            inter = np.minimum(X[u], X).sum(axis=1)
            if head["measure"] == "INT-N":
                union = np.maximum(X[u], X).sum(axis=1)
                sims = np.divide(inter, union, out=np.zeros(n),
                                 where=union > 0)
            else:
                sims = inter
            sims[u] = 0.0
            if directed:
                mine = src == u
                peers = np.flatnonzero(sims > 0)
                top = peers[np.lexsort((peers, -sims[peers]))][:k]
                if sorted(dst[mine].tolist()) != sorted(top.tolist()):
                    return f"{path.name}: node {u} peers are not its top {k}"
                other = dst[mine]
            else:
                mine = (src == u) | (dst == u)
                other = np.where(src[mine] == u, dst[mine], src[mine])
            if not np.allclose(w[mine], sims[other], rtol=1e-9, atol=0):
                return f"{path.name}: node {u} weights differ"
    return None


def check_cc_counts(out_dir: Path, rows: list, expected: dict,
                    **_) -> str | None:
    """Each CC config has one record per label positive per partition."""
    got: dict[tuple, int] = {}
    for key, part, *_rest in rows:
        if "|task=CC|" in key:
            got[(key, part)] = got.get((key, part), 0) + 1
    keys = {key for key, _ in got}
    if not keys:
        return "no CC records"
    for key in keys:
        for role in EVAL_ROLES:
            if got.get((key, role), 0) != expected[role]:
                return (f"{key} {role}: {got.get((key, role), 0)} records, "
                        f"{expected[role]} label positives")
    return None


def check_lp_balance(out_dir: Path, rows: list, **_) -> str | None:
    """Every LP owner batch holds as many edges as non-edges."""
    tally: dict[tuple, int] = {}
    for key, part, node, _t, _p, actual in rows:
        if "|task=LP|" in key:
            slot = (key, part, node)
            tally[slot] = tally.get(slot, 0) + (1 if actual else -1)
    if not tally:
        return "no LP records"
    bad = [slot for slot, diff in tally.items() if diff != 0]
    return f"{len(bad)} unbalanced owner batches, e.g. {bad[0]}" \
        if bad else None


def check_lp_actual(out_dir: Path, rows: list, **_) -> str | None:
    """An LP record's actual is 1 exactly when its pair is an edge of the
    family's network file."""
    edges: dict[str, set] = {}
    for key, _part, _node, target, _p, actual in rows:
        if "|task=LP|" not in key:
            continue
        fam = family_of(key)
        if fam not in edges:
            _, src, dst, _ = read_network(out_dir / "networks" / f"{fam}.tsv")
            edges[fam] = set(zip(np.minimum(src, dst).tolist(),
                                 np.maximum(src, dst).tolist()))
        a, b = (int(x) for x in target.split("-"))
        if ((min(a, b), max(a, b)) in edges[fam]) != bool(actual):
            return f"{key}: pair {target} actual {actual}"
    return None


def check_coin(out_dir: Path, rows: list, **_) -> str | None:
    """coin LP precision lies within a binomial bound of 0.5."""
    tally: dict[tuple, list] = {}
    for key, part, _n, _t, pred, actual in rows:
        if "|clf=coin|" in key and pred:
            slot = tally.setdefault((key, part), [0, 0])
            slot[0] += 1
            slot[1] += actual
    if not tally:
        return "no coin predictions"
    for slot, (n_pred, hits) in tally.items():
        bound = COIN_SIGMAS * 0.5 / math.sqrt(n_pred)
        if abs(hits / n_pred - 0.5) > bound:
            return (f"{slot}: precision {hits / n_pred:.4f} on {n_pred} "
                    f"predictions, bound 0.5 +- {bound:.4f}")
    return None


CHECKS = {
    "grid": (check_audit, check_tau, check_networks, check_cc_counts,
             check_lp_balance, check_lp_actual),
    "lp-scale": (check_audit, check_tau, check_networks, check_lp_balance,
                 check_lp_actual, check_coin),
    "cc-events": (check_audit, check_tau, check_networks, check_cc_counts),
}


def run_checks(workload: str, out_dir: Path, seed: int,
               expected_positives: dict | None) -> dict:
    """Run the workload's checks on one round's outputs; name -> failure
    reason or None."""
    rows = read_batches(out_dir)
    if expected_positives is None:
        expected_positives = positives_from_matrices(out_dir)
    out = {}
    for check in CHECKS[workload]:
        try:
            out[check.__name__] = check(out_dir, rows=rows, seed=seed,
                                        expected=expected_positives)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            out[check.__name__] = f"{type(exc).__name__}: {exc}"
    return out
