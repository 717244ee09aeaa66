"""Show where the root of unity actually enters.

Two layers of vanishing look similar on the page but live in different
rings. The alternating combinations f(n, m) vanish identically in q
whenever m > 2n, so they pass in the plain Laurent ring. The ladder
identities that collapse a high divided power into N-spaced pieces are
different: they are false over the polynomial ring and become true only
after reducing mod Phi_2N.

The same code path evaluates both, so the Laurent-ring failure of a
ladder is a live demonstration that the checker can fail. A passing
status is evidence, not an artifact of a checker that cannot say no.

Run with:  python3 demos/generic_vs_root.py
"""

from qloop import (
    ChainContext,
    build_site_rep,
    check_higher_serre,
    check_id2,
    make_store,
)
from qloop.rings import LAURENT_RING

E_PAIR = ("E0", "E1")


def report(check):
    print(f"  {check.check_id}")
    print(f"    status: {check.status}")
    if check.nontrivial:
        print(f"    terms summed: {check.nontrivial['terms_nonzero']}"
              f" (largest has {check.nontrivial['max_term_nnz']} entries)")
    if check.witness:
        print(f"    witness: charge sector {check.witness['sector']},"
              f" residual entry {check.witness['value']}")
    print()


def main():
    rep = build_site_rep("spin_half", 2)

    store = make_store(ChainContext(rep, 6))
    print("N = 2, chain of 6 sites, raising family.\n")
    print("The alternating combination at (n, m) = (1, 3), over generic q:")
    report(check_higher_serre(store, 1, 3, E_PAIR, LAURENT_RING))
    print("Passing in the Laurent ring means the relation holds as a"
          " polynomial\nidentity, before any root is chosen.\n")

    store = make_store(ChainContext(rep, 5))
    print("Now a narrow-gap ladder at (n, m) = (1, 3) on 5 sites.")
    print("At the root (mod Phi_4):")
    report(check_id2(store, 1, 3, E_PAIR))
    print("The very same two terms over generic q:")
    report(check_id2(store, 1, 3, E_PAIR, ring=LAURENT_RING))

    print("Identical operators, identical code, only the ring differs."
          "\nThe ladder needs q^(2N) = 1; the witness above is what is left"
          "\nwithout it.")


if __name__ == "__main__":
    main()
