"""The verification suites' ids and one-line descriptions.

Data only, with no imports: the command line's help text reads this table
without loading the suites themselves (harness.py).
"""

SUITE_DESCRIPTIONS = {
    0: "structural invariants and criterion cross-consistency",
    1: "one entangled edge forces entanglement",
    2: "entangled edges sharing a vertex force entanglement",
    4: "tensor products of separable factors stay separable",
    5: "complete graphs are separable, stars are entangled",
    7: "perfect entangled matchings are separable",
}

SUITE_IDS = tuple(SUITE_DESCRIPTIONS)
