"""Frozen boundary transition-set components for the quartic family

    F = x^4 - lam*x + a1 + a2*lam + a3*x^2   on  U = [-2, 2], L = [1, 3].

Each component is the output of exact elimination (a lex Groebner basis,
see `germforge.localalg.eliminate`) and agrees, in canonical form, with the
references in perfbench/refs/sigma.json (`box.winged-cusp`), which are
derived with sympy alone, without importing germforge.  The witness tests in
test_bifurcation.py add a one-directional check: rational points built from
the pre-elimination system are exact zeros of every polynomial below.  The
strings are the implementation's canonical rendering (squarefree, content 1,
sign-normalized) and serve as the regression oracle.

G_1 carries no plane factor a2 + 2 (x = -2) or a2 - 2 (x = 2): at
(a1, a2, a3) = (0, -2, 0), F(-2, lam) = 16 has no root, so that plane is
not in the closure of the projection.

Note on the germ: the variant family with an a1*x term in place of the
constant a1 does not reproduce these components; every derivation below (for
instance the corner values 14, 10, 18, 22 in L_C and the G_2 polynomial
16 + a1 + 4*a3) follows from the constant reading used here.

System order: x-boundary families list x = -2 before x = 2; lambda-boundary
families list lam = 1 before lam = 3; L_C orders corners (-2,1), (-2,3),
(2,1), (2,3).
"""

BOUNDARY_COMPONENTS = {
    "L_C": [
        ["18 + a1 + a2 + 4*a3"],
        ["22 + a1 + 3*a2 + 4*a3"],
        ["14 + a1 + a2 + 4*a3"],
        ["10 + a1 + 3*a2 + 4*a3"],
    ],
    "L_SH": [
        ["-48 + a1 - 32*a2 - 4*a3 - 4*a2*a3"],
        ["-48 + a1 + 32*a2 - 4*a3 + 4*a2*a3"],
    ],
    "L_SV": [
        ["-27 + 144*a1*a3 + 144*a2*a3 + 256*a1^3 + 768*a1^2*a2"
         " + 768*a1*a2^2 + 256*a2^3 - 4*a3^3 - 128*a1^2*a3^2"
         " - 256*a1*a2*a3^2 - 128*a2^2*a3^2 + 16*a1*a3^4 + 16*a2*a3^4"],
        ["-2187 + 1296*a1*a3 + 3888*a2*a3 + 256*a1^3 + 2304*a1^2*a2"
         " + 6912*a1*a2^2 + 6912*a2^3 - 36*a3^3 - 128*a1^2*a3^2"
         " - 768*a1*a2*a3^2 - 1152*a2^2*a3^2 + 16*a1*a3^4 + 48*a2*a3^4"],
    ],
    "L_T": [
        ["16 + a1 + 4*a3", "2 + a2"],
        ["16 + a1 + 4*a3", "-2 + a2"],
    ],
    "G_1": [
        ["-36864 - 9984*a1 + 24576*a2 - 33792*a3 - 1072*a1^2"
         " + 7168*a1*a2 - 3712*a1*a3 - 16384*a2^2 - 1024*a2*a3"
         " - 11008*a3^2 + 27*a1^3 - 1184*a1^2*a2 - 36*a1^2*a3"
         " + 11264*a1*a2^2 + 1152*a1*a2*a3 - 112*a1*a3^2 - 32768*a2^3"
         " - 12288*a2^2*a3 - 8192*a2*a3^2 - 1472*a3^3 - 180*a1^2*a2*a3"
         " + 4096*a1*a2^2*a3 + 32*a1*a2*a3^2 + 16*a1*a3^3"
         " - 20480*a2^3*a3 - 5376*a2^2*a3^2 - 2112*a2*a3^3 - 64*a3^4"
         " + 368*a1*a2^2*a3^2 + 16*a1*a2*a3^3 - 4608*a2^3*a3^2"
         " - 1152*a2^2*a3^3 - 128*a2*a3^4 + 4*a1*a2^2*a3^3"
         " - 448*a2^3*a3^3 - 80*a2^2*a3^4 - 16*a2^3*a3^4"],
        ["-36864 - 9984*a1 - 24576*a2 - 33792*a3 - 1072*a1^2"
         " - 7168*a1*a2 - 3712*a1*a3 - 16384*a2^2 + 1024*a2*a3"
         " - 11008*a3^2 + 27*a1^3 + 1184*a1^2*a2 - 36*a1^2*a3"
         " + 11264*a1*a2^2 - 1152*a1*a2*a3 - 112*a1*a3^2 + 32768*a2^3"
         " - 12288*a2^2*a3 + 8192*a2*a3^2 - 1472*a3^3 + 180*a1^2*a2*a3"
         " + 4096*a1*a2^2*a3 - 32*a1*a2*a3^2 + 16*a1*a3^3"
         " + 20480*a2^3*a3 - 5376*a2^2*a3^2 + 2112*a2*a3^3 - 64*a3^4"
         " + 368*a1*a2^2*a3^2 - 16*a1*a2*a3^3 + 4608*a2^3*a3^2"
         " - 1152*a2^2*a3^3 + 128*a2*a3^4 + 4*a1*a2^2*a3^3"
         " + 448*a2^3*a3^3 - 80*a2^2*a3^4 + 16*a2^3*a3^4"],
    ],
    "G_2": [
        ["16 + a1 + 4*a3"],
    ],
}
