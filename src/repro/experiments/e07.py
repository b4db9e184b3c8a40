"""E7 — Lemma 5 / Lemma 6 / Figure 9: the Hall condition and Winograd's
matrix-vector bound.

Exhaustively verify ``|N(D)| >= |D| / n0`` over all dependency subsets
(per row class, as the paper's proof partitions) for the 2x2 and 3x3
catalog algorithms; exercise Lemma 6 on the classical matrix-vector
computation (the tight case) and on reduced computations with removed
products (Figure 9's G_1°); and confirm a broken algorithm *fails* the
condition with an explicit certificate.
"""

from __future__ import annotations

from repro.bilinear import classical, laderman, strassen, winograd
from repro.bilinear.algorithm import BilinearAlgorithm
from repro.bilinear.winograd_bound import (
    ProductFormComputation,
    check_lemma6,
    classical_matvec,
)
from repro.errors import HallConditionError
from repro.experiments.harness import ExperimentResult, register
from repro.routing import base_matching, check_hall_condition
from repro.utils.tables import TextTable

__all__ = ["run"]


@register("E7")
def run() -> ExperimentResult:
    hall_table = TextTable(
        ["algorithm", "side", "exhaustive", "min |N(D)| n0 / |D|", "holds"],
        title="E7: Lemma 5 Hall condition (per-row-class subsets)",
    )
    checks: dict[str, bool] = {}
    for alg in (strassen(), winograd(), laderman(), classical(2)):
        for side in ("A", "B"):
            report = check_hall_condition(alg, side)
            hall_table.add_row(
                [alg.name, side, "yes" if report["exhaustive"] else "no",
                 round(report["min_ratio"], 3)
                 if report["min_ratio"] != float("inf") else "-",
                 "yes" if report["holds"] else "no"]
            )
            checks[f"{alg.name}/{side}: Hall condition holds"] = report["holds"]
            if report["exhaustive"]:
                checks[f"{alg.name}/{side}: min ratio >= 1"] = (
                    report["min_ratio"] >= 1.0
                )

    # Lemma 6 instances.
    lemma6_table = TextTable(
        ["computation", "n0", "d (correct coeffs)", "multiplications",
         "holds"],
        title="E7: Lemma 6 instances (Winograd bound, Figure 9)",
    )
    for n0 in (2, 3):
        comp = classical_matvec(n0)
        rep = check_lemma6(comp)
        lemma6_table.add_row(
            ["classical matvec", n0, rep["d"], rep["n_mults"],
             "yes" if rep["holds"] else "no"]
        )
        checks[f"matvec n0={n0}: tight (d = mults = n0^2)"] = (
            rep["d"] == rep["n_mults"] == n0 * n0
        )

    # Figure 9's reduction: remove products, count surviving coefficients.
    comp = classical_matvec(3)
    for removed in (1, 3, 5):
        Z = comp.Z.copy()
        Z[:, :removed] = 0
        reduced = ProductFormComputation(n0=3, UA=comp.UA, VB=comp.VB, Z=Z)
        rep = check_lemma6(reduced)
        lemma6_table.add_row(
            [f"matvec minus {removed} products", 3, rep["d"],
             rep["n_mults"], "yes" if rep["holds"] else "no"]
        )
        checks[f"reduced matvec (-{removed}): lemma 6 holds"] = rep["holds"]

    # Negative control: erase an input from every product of Strassen —
    # the Hall condition must fail with a certificate.
    alg = strassen()
    U = alg.U.copy()
    U[:, 1] = 0.0
    broken = BilinearAlgorithm(n0=2, U=U, V=alg.V, W=alg.W, name="no-a12")
    try:
        base_matching(broken, "A")
        checks["broken algorithm rejected with certificate"] = False
    except HallConditionError as exc:
        checks["broken algorithm rejected with certificate"] = (
            exc.violating_set is not None
        )

    return ExperimentResult(
        experiment_id="E7",
        title="Lemma 5 & Lemma 6: Hall condition via Winograd's bound",
        tables=[hall_table, lemma6_table],
        checks=checks,
    )
