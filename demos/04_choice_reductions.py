"""Choice principles as relations, canonifications, and reduction witnesses.

Run:  python3 demos/04_choice_reductions.py
"""

from otmlab import (
    Canonification,
    EMPTY,
    PRINCIPLES,
    RunBudget,
    builtin_witnesses,
    check_canonification,
    format_set,
    hf,
    load_witness_manifest,
    run_with_miracle,
    singleton,
    universe_rank_le,
    verify_reduction,
    witness_path,
)

U = universe_rank_le(3)
PP, WO = PRINCIPLES["PP"], PRINCIPLES["WO"]

print("== Canonifications: uniform witness choices ==")
ack_min = Canonification({x: x.elements[0] for x in U if PP.domain(x)}, "ack-min")
ok, _ = check_canonification(ack_min, PP, U)
print(f"PP with the Ackermann-least pick over rank<=3: {'OK' if ok else 'FAIL'}")
broken = Canonification({x: EMPTY for x in U if PP.domain(x)}, "always-empty")
ok, cex = check_canonification(broken, PP, U)
print(f"PP with the constant empty pick: counterexample x={format_set(cex)}")

print()
print("== Verifying a reduction against every canonification ==")
witnesses = builtin_witnesses()
for name in ("pp_le_zl", "zl_le_pp", "ac_le_acprime", "wo_otm_pp"):
    w = witnesses[name]
    report = verify_reduction(w, U, cap=30_000, seed=1)
    print(f"  {report.summary()}")

print()
print("== The same reduction as raw tape programs ==")
w = load_witness_manifest(witness_path("pp_le_zl.json"))
report = verify_reduction(w, U, cap=30_000, seed=1)
print(f"  {report.summary()}")
print("  (the pre-stage walks the code's pair shells with a unary odometer;")
print("   the post-stage copies a whole tape and halts at time w+2)")

print()
print("== Iterated picking well-orders a set ==")
wo_via_pp = witnesses["wo_otm_pp"]
x = hf([EMPTY, singleton(EMPTY), singleton(singleton(EMPTY))])
y, picks = run_with_miracle(wo_via_pp, lambda s: s.elements[0], x, RunBudget())
print(f"x = {format_set(x)}")
print(f"well-order obtained with {picks} oracle picks (|x| = {len(x)})")
print(f"WO holds: {WO.holds(x, y)}")

