#include "phy/geometry.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace ezflow::phy {

namespace {

/// Relative margin of the cell edge over the radius. A pair whose
/// computed distance is <= radius has |dx| <= radius * (1 + 3 ulp); its
/// two quotients x / cell carry a rounding error of at most
/// |x| / cell * 2^-53 each, so they differ by less than one — and the
/// pair lands at most one cell apart — whenever
/// 1e-6 > 3 * 2^-53 + 2 * 2^-53 * |x| / cell, i.e. for coordinates up to
/// ~4e9 cells from the origin. A pair exactly at the radius can never be
/// rounded two cells apart.
constexpr double kCellMargin = 1e-6;

}  // namespace

CellIndex::CellIndex(const std::vector<Position>& points, double radius)
    : cell_m_(radius > 0.0 ? radius * (1.0 + kCellMargin) : 1.0)
{
    // With a non-positive radius only co-located points can match, and
    // those share a cell at any cell size.
    struct Keyed {
        std::int64_t cx;
        std::int64_t cy;
        std::uint32_t index;
    };
    std::vector<Keyed> keyed;
    keyed.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        keyed.push_back({coord(points[i].x), coord(points[i].y), static_cast<std::uint32_t>(i)});
    std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
        return std::tie(a.cx, a.cy, a.index) < std::tie(b.cx, b.cy, b.index);
    });
    members_.reserve(keyed.size());
    for (const Keyed& k : keyed) {
        const auto at = static_cast<std::uint32_t>(members_.size());
        if (cells_.empty() || cells_.back().cx != k.cx || cells_.back().cy != k.cy)
            cells_.push_back(Cell{k.cx, k.cy, at, at});
        members_.push_back(k.index);
        cells_.back().end = at + 1;
    }
}

void CellIndex::candidates(const Position& p, std::vector<std::size_t>& out) const
{
    out.clear();
    const std::int64_t cx = coord(p.x);
    const std::int64_t cy = coord(p.y);
    const auto before = [](const Cell& c, const std::pair<std::int64_t, std::int64_t>& key) {
        return std::tie(c.cx, c.cy) < std::tie(key.first, key.second);
    };
    // Cells sort by (cx, cy), so each column's three cells cy-1..cy+1
    // are contiguous: one binary search per column.
    for (std::int64_t x = cx - 1; x <= cx + 1; ++x) {
        auto it = std::lower_bound(cells_.begin(), cells_.end(), std::make_pair(x, cy - 1), before);
        for (; it != cells_.end() && it->cx == x && it->cy <= cy + 1; ++it)
            out.insert(out.end(), members_.begin() + it->begin, members_.begin() + it->end);
    }
    std::sort(out.begin(), out.end());
}

}  // namespace ezflow::phy
