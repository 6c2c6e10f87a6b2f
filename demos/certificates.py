#!/usr/bin/env python3
"""Missing-type certificates from cut-vertex profiles, and their limits.

A cut vertex splitting a graph into components of sizes a >= b >= c1 >= ...
forces every ordering of certain types to cross the window [b+1, b+c].  The
decision procedure covers four parameter regimes; the boundary profiles of
S(6,4,1,1) and S(5,3,2) show why none of its hypotheses can be dropped.
"""

import json

from epolab import (
    CutProfile,
    check_partsums_obstruction,
    describe_inapplicability,
    has_connected_partition,
    spider,
    spider4_classify,
    theorem_decide,
)


def main():
    print("A certificate, end to end")
    print("-" * 60)
    profile = CutProfile(2, 2, (2, 2, 2))  # the spider S(2,2,2,2,2)
    cert = theorem_decide(profile)
    print(f"profile (a={profile.a}, b={profile.b}, cs={profile.cs}):")
    print(json.dumps(cert.to_json_dict(), indent=2))
    g = spider((2, 2, 2, 2, 2))
    print(f"prefix-sum re-check: {check_partsums_obstruction(cert.lam, profile)}")
    print(f"brute-force search finds no partition: {has_connected_partition(g, cert.lam) is None}")
    print()

    print("Profiles where every arm fails")
    print("-" * 60)
    for a, b, cs in [(6, 4, (1, 1)), (5, 3, (2,)), (9, 8, (1,))]:
        profile = CutProfile(a, b, cs)
        assert theorem_decide(profile) is None
        print(f"(a={a}, b={b}, cs={cs}): {describe_inapplicability(profile)}")
    print()
    print("S(6,4,1,1) indeed has a connected partition of every type, and")
    print("S(5,3,2) is even e-positive, so those hypotheses are sharp.")
    print()

    print("Four-leg spiders are never e-positive")
    print("-" * 60)
    for legs in [(1, 1, 1, 1), (2, 2, 2, 2), (6, 4, 1, 1), (9, 9, 2, 1)]:
        verdict = spider4_classify(legs)
        what = (
            f"certificate {verdict.certificate.lam}"
            if verdict.certificate
            else verdict.note
        )
        print(f"S{legs}: {verdict.method} -> {what}")


if __name__ == "__main__":
    main()
