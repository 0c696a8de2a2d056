/**
 * @file
 * A libm-free exp and log that return the same bits on every IEEE-754 host.
 *
 * The C library picks its transcendental code at run time (glibc, for one,
 * has separate FMA and non-FMA builds of exp/log/cos and selects one per
 * CPU), and the last bit of a result differs between them. A random draw
 * that went through such a call would make a seed replay differently on
 * another machine. These kernels follow fdlibm's algorithms (the route
 * Java's StrictMath takes) using only IEEE-754 +, -, *, / and bit
 * operations, so their results depend on nothing but the argument, given
 * that doubles are evaluated in double precision and nothing is fused into
 * an FMA (src/ builds with -ffp-contract=off).
 *
 * Both are accurate to less than 1 ULP and follow C's special cases:
 * Exp(+inf) = +inf, Exp(-inf) = 0, overflow gives +inf and underflow 0;
 * Log(0) = -inf, Log(x < 0) = NaN, Log(+inf) = +inf; NaN propagates.
 */
#ifndef FLEX_COMMON_PORTABLE_MATH_HPP_
#define FLEX_COMMON_PORTABLE_MATH_HPP_

namespace flex {

/** e^x to within 1 ULP, bit-identical on every host. */
double PortableExp(double x);

/** Natural logarithm to within 1 ULP, bit-identical on every host. */
double PortableLog(double x);

}  // namespace flex

#endif  // FLEX_COMMON_PORTABLE_MATH_HPP_
