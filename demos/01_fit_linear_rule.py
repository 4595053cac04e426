"""Fit a linear sequential re-estimation rule on a simulated parallel setting.

Generates a three-arm trial whose optimal assignment is driven by a linear
index of the covariates, fits the cascade with a linear kernel under the L2
penalty (selection "none") and under the L1 penalty (selection "embedded",
whose slopes can be exactly zero), and compares each learned rule against the
oracle on an independent test draw.
"""

import numpy as np

from ordinalsr.evaluate import evaluate_rule
from ordinalsr.simgen import SETTINGS, generate
from ordinalsr.sr import SRConfig, fit_sr, predict_ordinal


def main():
    spec = SETTINGS["P1"]
    train = generate(spec, 400, seed=1)
    test = generate(spec, 5000, seed=2)
    oracle = evaluate_rule(test.true_optimal, test)
    print(f"setting {spec.id}: {spec.k_arms} arms, n_train={train.n}")

    for selection in ("none", "embedded"):
        model = fit_sr(train, SRConfig(kernel_kind="linear", selection=selection, seed=1))
        pred = predict_ordinal(model, test.features)
        report = evaluate_rule(pred, test)
        print(f"selection {selection}:")
        for tag, rule in zip(("S1", "S2", "R1"),
                             model.sequential_rules + model.reestimation_rules):
            slopes = np.round(rule.slopes, 3) if hasattr(rule, "slopes") else "constant"
            print(f"  {tag}: intercept={getattr(rule, 'intercept', 0.0):+.3f} slopes={slopes}")
        print(f"  misclassification: fitted {report.misclassification:.3f} vs oracle 0.000")
        print(f"  value:             fitted {report.value:.3f} vs oracle {oracle.value:.3f}")
        shares = [round(float(v), 3) for v in report.assignment_proportions]
        print(f"  assignment shares: {shares}")


if __name__ == "__main__":
    main()
