/**
 * @file
 * Fixed-point quantization and sign-magnitude helpers.
 *
 * uSystolic operates on signed fixed-point data in sign-magnitude format:
 * an N-bit signed datum carries a sign bit and an (N-1)-bit magnitude, so
 * the unary bitstream length for the magnitude is 2^(N-1).
 */

#ifndef USYS_COMMON_FIXED_POINT_H
#define USYS_COMMON_FIXED_POINT_H

#include <algorithm>
#include <cmath>

#include "common/types.h"

namespace usys {

/** A signed value decomposed into sign and magnitude. */
struct SignMag
{
    bool negative = false;
    u32 magnitude = 0;

    /** Reassemble the signed value. */
    i32 toSigned() const { return negative ? -i32(magnitude) : i32(magnitude); }
};

/** Decompose a signed integer into sign-magnitude form. */
inline SignMag
toSignMag(i32 value)
{
    SignMag sm;
    sm.negative = value < 0;
    sm.magnitude = u32(sm.negative ? -i64(value) : i64(value));
    return sm;
}

/** Largest magnitude representable by an n-bit signed sign-magnitude datum. */
inline i32
maxMagnitude(int bits)
{
    return (1 << (bits - 1)) - 1;
}

/**
 * Quantize a real value to an n-bit signed integer under the given scale.
 *
 * @param value real input
 * @param scale real value represented by one LSB
 * @param bits total signed bitwidth (sign + magnitude)
 * @return integer code clamped to [-maxMagnitude, +maxMagnitude]
 *
 * Equals clamp(std::lround(value / scale)) (round half away from zero)
 * for every finite quotient, without the libm call: clamping first is
 * the same as clamping after, because rounding is monotone and keeps
 * the integer bounds fixed, and once clamped the truncating conversion
 * is exact and its remainder x - trunc(x) decides the rounding exactly
 * (floor(x + 0.5) would round 0.49999999999999994 up). A NaN quotient
 * gives 0.
 */
inline i32
quantize(double value, double scale, int bits)
{
    const i32 max_mag = maxMagnitude(bits);
    const double x = value / scale;
    const double lim = max_mag;
    if (!(x > -lim))
        return x <= -lim ? -max_mag : 0;
    if (x >= lim)
        return max_mag;
    i32 q = i32(x);
    const double frac = x - q;
    q += (frac >= 0.5) - (frac <= -0.5);
    return q;
}

/** Reconstruct the real value of an integer code under the given scale. */
inline double
dequantize(i32 code, double scale)
{
    return code * scale;
}

/**
 * Choose a symmetric quantization scale so that max_abs maps near full
 * scale of an n-bit signed code.
 */
inline double
symmetricScale(double max_abs, int bits)
{
    const i32 max_mag = maxMagnitude(bits);
    if (max_abs <= 0.0)
        return 1.0;
    return max_abs / max_mag;
}

/**
 * Round a scale up to the nearest power of two. uSystolic's early
 * termination rescales by shifting (Section III-C), so power-of-two scales
 * model the hardware exactly.
 */
inline double
pow2Scale(double scale)
{
    if (scale <= 0.0)
        return 1.0;
    return std::exp2(std::ceil(std::log2(scale)));
}

} // namespace usys

#endif // USYS_COMMON_FIXED_POINT_H
