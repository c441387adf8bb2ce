#pragma once

// O(N^2) brute-force reference for the fixed-radius neighbour queries the
// library answers through phy::CellIndex (Channel reach sets,
// net::rebuild_links, net::plan_shards). Deliberately naive: every pair,
// the same phy::distance predicate, no spatial structure.

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "phy/channel.h"
#include "phy/geometry.h"
#include "util/rng.h"

namespace ezflow::testutil {

/// For every point, the ascending indices of the other points within
/// `radius` (distance <= radius).
inline std::vector<std::vector<int>> brute_force_neighbours(
    const std::vector<phy::Position>& points, double radius)
{
    std::vector<std::vector<int>> out(points.size());
    for (std::size_t a = 0; a < points.size(); ++a)
        for (std::size_t b = 0; b < points.size(); ++b)
            if (a != b && phy::distance(points[a], points[b]) <= radius)
                out[a].push_back(static_cast<int>(b));
    return out;
}

/// Connected components of the within-`radius` graph, each point labelled
/// with the smallest index in its component.
inline std::vector<int> brute_force_components(const std::vector<phy::Position>& points,
                                               double radius)
{
    const std::vector<std::vector<int>> adjacency = brute_force_neighbours(points, radius);
    std::vector<int> label(points.size(), -1);
    for (std::size_t root = 0; root < points.size(); ++root) {
        if (label[root] >= 0) continue;
        std::vector<int> stack{static_cast<int>(root)};
        label[root] = static_cast<int>(root);
        while (!stack.empty()) {
            const int v = stack.back();
            stack.pop_back();
            for (const int w : adjacency[static_cast<std::size_t>(v)]) {
                if (label[static_cast<std::size_t>(w)] >= 0) continue;
                label[static_cast<std::size_t>(w)] = static_cast<int>(root);
                stack.push_back(w);
            }
        }
    }
    return label;
}

/// Relabel a partition (any ids) so each point carries the smallest index
/// of its class: two partitions are equal iff their canonical forms are.
inline std::vector<int> canonical_partition(const std::vector<int>& class_of)
{
    std::vector<int> out(class_of.size());
    for (std::size_t i = 0; i < class_of.size(); ++i) {
        out[i] = static_cast<int>(i);
        for (std::size_t j = 0; j < i; ++j) {
            if (class_of[j] == class_of[i]) {
                out[i] = out[j];
                break;
            }
        }
    }
    return out;
}

/// Check every attached transmitter's reach list against a scan over
/// every attached PHY in attach order: the same receivers in the same
/// order, each with the same in_delivery and sensed facts, distance and
/// reference two-ray power. Channel::transmit runs one loop body per
/// reach entry, in list order, so equal lists give the simulation a
/// transmit over every attached PHY (skipping those beyond the conflict
/// radius) would give. Only for channels on the reference propagation
/// path (no propagation model installed). Returns the first difference,
/// or "" when every list matches.
inline std::string reach_list_mismatch(phy::Channel& channel)
{
    const phy::PhyParams& params = channel.params();
    const double radius = params.conflict_radius_m();
    for (const phy::NodePhy* sender : channel.attached()) {
        const std::vector<phy::Channel::ReachEntry>& list = channel.reach_list(sender->id());
        const std::string tx = "tx " + std::to_string(sender->id());
        std::size_t next = 0;
        for (const phy::NodePhy* receiver : channel.attached()) {
            if (receiver == sender) continue;
            const double d = phy::distance(sender->position(), receiver->position());
            if (d > radius) continue;
            const double d_eff = std::max(d, 1.0);
            const double power_w = 1.0 / (d_eff * d_eff * d_eff * d_eff);
            const phy::Channel::ReachEntry* entry = next < list.size() ? &list[next] : nullptr;
            const char* wrong = nullptr;
            if (entry == nullptr)
                wrong = "missing from the list";
            else if (entry->phy != receiver)
                wrong = "holds another receiver";
            else if (entry->in_delivery != (d <= params.tx_range_m))
                wrong = "in_delivery differs";
            else if (entry->sensed != (d <= params.cs_range_m))
                wrong = "sensed differs";
            else if (entry->power_w != power_w)
                wrong = "power_w differs";
            else if (entry->distance_m != d)
                wrong = "distance_m differs";
            if (wrong != nullptr)
                return tx + " entry " + std::to_string(next) + " (rx " +
                       std::to_string(receiver->id()) + "): " + wrong;
            ++next;
        }
        if (next != list.size()) return tx + ": entries beyond the scan's " + std::to_string(next);
    }
    return "";
}

/// A point set plus the query radius it is checked under.
struct OracleLayout {
    std::string name;
    std::vector<phy::Position> points;
    double radius;
};

/// The layouts the cell index is checked on: 200 seeded random scatters
/// (negative origins, some co-located points), lattices spaced at exactly
/// the radius (so neighbour pairs sit at distance == radius, the cell
/// boundary case), pairs at the radius swept across a cell, and fully
/// co-located sets.
inline std::vector<OracleLayout> oracle_layouts()
{
    std::vector<OracleLayout> layouts;
    util::Rng rng(0xCE11);
    for (int k = 0; k < 200; ++k) {
        OracleLayout layout;
        layout.name = "random#" + std::to_string(k);
        layout.radius = rng.uniform_real(1.0, 600.0);
        const int n = rng.uniform_int(1, 120);
        const double side = rng.uniform_real(10.0, 4000.0);
        const double ox = rng.uniform_real(-5000.0, 5000.0);
        const double oy = rng.uniform_real(-5000.0, 5000.0);
        for (int i = 0; i < n; ++i) {
            if (i > 0 && rng.bernoulli(0.1)) {
                // Co-located with an earlier point.
                layout.points.push_back(
                    layout.points[static_cast<std::size_t>(rng.uniform_int(0, i - 1))]);
            } else {
                layout.points.push_back(
                    {ox + rng.uniform_real(0.0, side), oy + rng.uniform_real(0.0, side)});
            }
        }
        layouts.push_back(std::move(layout));
    }
    for (const double radius : {250.0, 550.0, 0.1, 1.0 / 3.0, 123.456, 1e-3}) {
        for (const double origin : {0.0, -7.0 * radius, -1234.5678}) {
            OracleLayout layout;
            layout.name = "lattice r=" + std::to_string(radius) + " o=" + std::to_string(origin);
            layout.radius = radius;
            for (int r = 0; r < 6; ++r)
                for (int c = 0; c < 7; ++c)
                    layout.points.push_back({origin + c * radius, origin + r * radius});
            layouts.push_back(std::move(layout));
        }
    }
    {
        // Isolated pairs exactly one radius apart along x (and along y),
        // their first point swept across a whole cell width in 1/2000
        // steps: a cell even 0.1% narrower than the radius puts some
        // pair two cells apart.
        constexpr double kRadius = 250.0;
        constexpr int kPairs = 2000;
        OracleLayout layout{"straddling pairs", {}, kRadius};
        for (int k = 0; k < kPairs; ++k) {
            const double sweep = -3.0 * kRadius + k * kRadius / kPairs;
            const double lane = k * 3.0 * kRadius;
            layout.points.push_back({sweep, lane});
            layout.points.push_back({sweep + kRadius, lane});
            layout.points.push_back({lane, sweep + 0.5});
            layout.points.push_back({lane, sweep + 0.5 + kRadius});
        }
        layouts.push_back(std::move(layout));
    }
    for (const double x : {0.0, -3.5, 1e4}) {
        layouts.push_back({"co-located x=" + std::to_string(x),
                           std::vector<phy::Position>(9, phy::Position{x, -x}), 250.0});
    }
    return layouts;
}

}  // namespace ezflow::testutil
