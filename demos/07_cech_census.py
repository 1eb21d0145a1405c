"""Cover nerves, gluing cocycles, and the finite census.

Gluing data assigns a group element to every double overlap and an
H-correction to every triple.  Triangles constrain the pair, the
tetrahedron condition makes the corrections associative, and a change
of trivialization walks through equivalence classes.  For finite
modules the whole space is small enough to classify outright.
"""

import json

from twogauge import (
    GluingCocycle,
    check_tetrahedron,
    check_triangle,
    classify_finite,
    crossed_module,
    load_scenario,
    nerve,
)

s3 = crossed_module("CONJ(S3)")
good = load_scenario("s3_cocycle.scn").cocycle
rep = check_triangle(good)
rep.extend(check_tetrahedron(good))
print(f"hand-built S3 data on the tetrahedron nerve: "
      f"{rep.to_dict()['verdict']} "
      f"({sum(1 for c in rep.checks)} checks)")

bad = load_scenario("corrupted_s3.scn").cocycle
rep = check_triangle(bad)
rep.extend(check_tetrahedron(bad))
print(f"same data with one h value corrupted:        "
      f"{rep.to_dict()['verdict']}")
for check in rep.failures:
    print(f"    FAIL {check.name}  witness {check.witness}")
print()

# Census: count every cocycle and bucket them by trivialization changes.
# The census runs in a gauge.  Both nerves are coned, so it takes the cone
# gauge and lists only the cocycles with g = e everywhere and h = e on the
# triples through chart 0; on a nerve that is not coned it takes no gauge
# and lists every cocycle.  The twisted Z3 module leaves one class on the tetrahedron;
# the Z2 gerbe on the sphere nerve splits 16 cocycles into two classes
# (trivial and not).
for name, shape in [("FLIP(Z3)", "tetrahedron"), ("GERBE(Z2)", "sphere")]:
    census = classify_finite(crossed_module(name), nerve(shape))
    print(f"{name} on the {shape} nerve: {census['cocycles']} cocycles "
          f"in {census['orbits']} classes")
    print(f"    representative: "
          f"{json.dumps(census['representatives'][0], sort_keys=True)}")
