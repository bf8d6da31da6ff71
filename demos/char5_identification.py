"""The characteristic-5 exceptional identification, step by step.

T(octonion, Kac) is a Lie superalgebra only over fields of
characteristic 5, where it turns out to be the same algebra as the
l = 5 member of the type B family: so_11 acting on its 32-dimensional
spin module.  Each step below is machine-verified.

Run:  python3 demos/char5_identification.py
"""
from spinlab import (GF, TITS_DIMS, build_tits, check_jacobi,
                     cross_identify_with_typeB, phi0, phi1_intertwine,
                     spin_map_psi, unit_ideal_split)

f = GF(5)

print("1. T(C, Kac) is a Lie superalgebra over GF(5) for every split")
print("   composition algebra C:")
for kind, dims in TITS_DIMS.items():
    A = build_tits(kind, f)
    rep = check_jacobi(A, mode="full")
    print(f"     {kind:<10} dims {dims}: jacobi "
          f"{'pass' if rep.jacobi_pass else 'FAIL'}")

print("2. The smallest one, T(unit, Kac), is not simple:")
split = unit_ideal_split(f)
print(f"     ideal dimensions {split['dims']}, joint span "
      f"{split['joint_span']} -> {'pass' if split['pass'] else 'FAIL'}")

print("3. The even part of T(octonion, Kac) is so(M, Q) for an")
print("   11-dimensional quadratic space M:")
print(f"     phi0 verified isomorphism, rank {phi0(f)['rank']}")

print("4. The odd part carries the spin representation of so(M, Q):")
psi = spin_map_psi(f)
print(f"     Clifford and representation relations: {psi['checked']} checks")
inter = phi1_intertwine(f)
print(f"     phi1 intertwining on all generator pairs: "
      f"{inter['checked']} checks, {'pass' if inter['pass'] else 'FAIL'}")

print("5. Explicit isomorphism with the l = 5 type B algebra:")
cross = cross_identify_with_typeB(f)
print(f"     status: {cross['status']} (odd rescaling mu = {cross['mu']}, "
      f"equivariant dimension {cross['equivariant_dim']})")
