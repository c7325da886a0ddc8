// On-curve points outside the order-r subgroup, for the tests that check
// what happens to them: the batches' exceptional lanes (tests/pairing)
// and the key decoders' subgroup checks (tests/abe). Decompression
// proves only that a point is on the curve, so each of these decodes.
// Nothing in the library calls these.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/drbg.h"
#include "pairing/group.h"

namespace maabe::pairing::rogue {

/// The G1 element with affine coordinates (x, y) (Montgomery form),
/// through the decoder: Group hands out no constructor for raw points.
G1 point_of(const Group& grp, const AffinePoint& p);

/// A random on-curve point, generally outside the order-r subgroup.
AffinePoint random_curve_point(const Group& grp, crypto::Drbg& rng);

/// On-curve points of small order: (0, 0) of order 2, and (q+1)/d
/// multiples of a random point for d = 3 and 4 where d divides q+1.
std::vector<G1> small_order_points(const Group& grp, crypto::Drbg& rng);

/// A point of prime order d, d dividing q + 1 (17 on the paper curve,
/// where it divides the cofactor). Throws MathError when d does not.
G1 point_of_order(const Group& grp, uint64_t d, crypto::Drbg& rng);

/// Points outside the order-r subgroup: the small-order points, a point
/// of order 17 where 17 divides q + 1, each of those plus a subgroup
/// point (order m * r, so a multiply by r - 1 meets no exceptional step
/// and the point fails on the comparison with -P), and a random curve
/// point.
std::vector<G1> outside_points(const Group& grp, crypto::Drbg& rng);

}  // namespace maabe::pairing::rogue
