#!/usr/bin/env python3
"""Walk through the headline spider computations.

Three small spiders tell the whole story: S(1,1,1) is missing a connected
partition and is not e-positive; S(3,2,1) has every connected partition and
is e-positive; S(4,1,1) has every connected partition yet still fails
e-positivity, so the connected-partition condition is necessary but not
sufficient.
"""

from epolab import csf_e, format_parts, is_e_positive, missing_types, spider


def show(legs):
    g = spider(legs)
    print(f"S{legs}  (n = {g.n})")
    print(csf_e(g).to_text())
    verdict = is_e_positive(g)
    missing = missing_types(g)
    print(f"  e-positive: {verdict.positive}")
    if verdict.negatives:
        print(f"  negative terms: {list(verdict.negatives)}")
    if missing:
        print(f"  missing connected-partition types: {[format_parts(t) for t in missing]}")
    else:
        print("  has a connected partition of every type")
    print()


def main():
    for legs in [(1, 1, 1), (3, 2, 1), (4, 1, 1)]:
        show(legs)
    print("S(4,1,1) shows the gap: every connected partition exists, yet the")
    print("coefficient of e_(3,2,2) is -3, so coefficients must be computed.")


if __name__ == "__main__":
    main()
