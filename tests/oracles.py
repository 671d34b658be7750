"""Independent reference implementations that tests compare the library
against."""

from branchpolar.poly import BivariatePolynomial


def sylvester_resultant_y(f: BivariatePolynomial, g: BivariatePolynomial) -> BivariatePolynomial:
    """Resultant with respect to y via fraction-free Bareiss elimination of
    the Sylvester matrix; an independent route kept as an oracle for the
    subresultant PRS."""
    F, G = f.y_coefficients(), g.y_coefficients()
    n, m = len(F) - 1, len(G) - 1
    if n < 0 or m < 0:
        return BivariatePolynomial.zero()
    size = n + m
    zero = BivariatePolynomial.zero()
    M = [[zero] * size for _ in range(size)]
    for r in range(m):
        for k in range(n + 1):
            M[r][r + k] = F[n - k]
    for r in range(n):
        for k in range(m + 1):
            M[m + r][r + k] = G[m - k]
    # Bareiss: exact-division fraction-free Gaussian elimination
    sign = 1
    prev = BivariatePolynomial.one()
    for k in range(size - 1):
        if M[k][k].is_zero:
            for r in range(k + 1, size):
                if not M[r][k].is_zero:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return BivariatePolynomial.zero()
        for r in range(k + 1, size):
            for c in range(k + 1, size):
                num = M[r][c] * M[k][k] - M[r][k] * M[k][c]
                M[r][c] = num.exact_div(prev)
            M[r][k] = zero
        prev = M[k][k]
    det = M[size - 1][size - 1]
    return det if sign == 1 else -det
