#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace ezflow::phy {

/// Planar node position in meters. The testbed map (Fig. 3) and the ns-2
/// scenarios are both 2-D deployments.
struct Position {
    double x = 0.0;
    double y = 0.0;
};

inline double distance(const Position& a, const Position& b)
{
    const double dx = a.x - b.x;
    const double dy = a.y - b.y;
    return std::sqrt(dx * dx + dy * dy);
}

/// Fixed-radius neighbour query over a static point set: a uniform grid
/// of square cells, each strictly wider than `radius`, so every pair
/// within the radius lies in the same or an adjacent cell and a query
/// scans only the 3x3 block around a point. Building is O(n log n),
/// each query O(candidates) instead of O(n).
///
/// The index returns *candidates* — a superset of the points within the
/// radius — and leaves the exact distance predicate to the caller, so a
/// caller that used to scan every point in index order keeps its own
/// filter and, with the candidates in ascending index order, produces
/// the same result in the same order.
class CellIndex {
public:
    CellIndex(const std::vector<Position>& points, double radius);

    /// Replace `out` with the indices (ascending) of every point in the
    /// 3x3 block of cells around `p`. Includes every point within
    /// `radius` of `p`, and `p` itself when it is one of the points.
    void candidates(const Position& p, std::vector<std::size_t>& out) const;

private:
    struct Cell {
        std::int64_t cx;
        std::int64_t cy;
        std::uint32_t begin;  ///< range into members_
        std::uint32_t end;
    };

    std::int64_t coord(double v) const
    {
        return static_cast<std::int64_t>(std::floor(v / cell_m_));
    }

    /// Cell edge: the radius plus a relative margin (geometry.cpp), or
    /// 1 m when the radius is not positive.
    double cell_m_;
    std::vector<Cell> cells_;             ///< sorted by (cx, cy)
    std::vector<std::uint32_t> members_;  ///< point indices, grouped by cell, ascending
};

}  // namespace ezflow::phy
