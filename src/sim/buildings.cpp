#include "sim/buildings.hpp"

#include <cmath>
#include <stdexcept>

namespace crowdmap::sim {

Polygon corridor(Vec2 from, Vec2 to, double width) {
  const double hw = width / 2.0;
  if (std::abs(from.y - to.y) < 1e-9) {  // horizontal
    const double x0 = std::min(from.x, to.x);
    const double x1 = std::max(from.x, to.x);
    return Polygon({{x0, from.y - hw}, {x1, from.y - hw},
                    {x1, from.y + hw}, {x0, from.y + hw}});
  }
  if (std::abs(from.x - to.x) < 1e-9) {  // vertical
    const double y0 = std::min(from.y, to.y);
    const double y1 = std::max(from.y, to.y);
    return Polygon({{from.x - hw, y0}, {from.x + hw, y0},
                    {from.x + hw, y1}, {from.x - hw, y1}});
  }
  throw std::invalid_argument("corridor centerline must be axis-aligned");
}

namespace {

/// Office above (+1) or below (-1) a horizontal corridor at height cy with
/// half-width hw; door on the corridor-facing edge.
[[nodiscard]] RoomSpec office_on_x_corridor(int id, double x, double cy, double hw,
                                            int side, double width, double depth) {
  RoomSpec r;
  r.id = id;
  r.name = std::string("R").append(std::to_string(id));
  r.width = width;
  r.depth = depth;
  r.center = {x, cy + side * (hw + depth / 2.0)};
  r.door = {x, cy + side * hw};
  return r;
}

/// Office left (-1) or right (+1) of a vertical corridor at x = cx.
[[nodiscard]] RoomSpec office_on_y_corridor(int id, double y, double cx, double hw,
                                            int side, double width, double depth) {
  RoomSpec r;
  r.id = id;
  r.name = std::string("R").append(std::to_string(id));
  r.width = depth;   // depth extends along x here
  r.depth = width;
  r.center = {cx + side * (hw + depth / 2.0), y};
  r.door = {cx + side * hw, y};
  return r;
}

}  // namespace

FloorPlanSpec lab1() {
  FloorPlanSpec spec;
  spec.name = "Lab1";
  spec.feature_density = 0.85;
  const double kw = 2.4;  // corridor width
  const double hw = kw / 2.0;
  // Main corridor along x; spur going up at x = 20.
  spec.hallways.push_back(corridor({0, 0}, {40, 0}, kw));
  spec.hallways.push_back(corridor({20, 0}, {20, 16}, kw));

  int id = 0;
  // Offices above the main corridor (skip the spur junction around x=20).
  for (const double x : {4.0, 10.0, 16.0, 25.0, 31.0, 37.0}) {
    spec.rooms.push_back(office_on_x_corridor(++id, x, 0, hw, +1, 5.0, 4.2));
  }
  // Offices below the main corridor.
  for (const double x : {5.0, 12.0, 20.0, 28.0, 35.0}) {
    spec.rooms.push_back(office_on_x_corridor(++id, x, 0, hw, -1, 5.6, 4.8));
  }
  // One large room flanking the spur (a lab space).
  spec.rooms.push_back(office_on_y_corridor(++id, 9.0, 20.0, hw, +1, 7.0, 6.0));
  return spec;
}

FloorPlanSpec lab2() {
  FloorPlanSpec spec;
  spec.name = "Lab2";
  spec.feature_density = 0.8;
  const double kw = 2.4;
  const double hw = kw / 2.0;
  // L-shaped corridor.
  spec.hallways.push_back(corridor({0, 0}, {30, 0}, kw));
  spec.hallways.push_back(corridor({30, 0}, {30, 20}, kw));

  int id = 100;
  for (const double x : {3.5, 9.5, 15.5, 21.5}) {
    spec.rooms.push_back(office_on_x_corridor(++id, x, 0, hw, +1, 4.6, 4.0));
  }
  for (const double x : {6.0, 14.0, 22.0}) {
    spec.rooms.push_back(office_on_x_corridor(++id, x, 0, hw, -1, 6.2, 5.0));
  }
  for (const double y : {5.0, 11.0, 17.0}) {
    spec.rooms.push_back(office_on_y_corridor(++id, y, 30.0, hw, -1, 4.4, 4.4));
  }
  return spec;
}

FloorPlanSpec gym() {
  FloorPlanSpec spec;
  spec.name = "Gym";
  spec.feature_density = 0.42;  // featureless walls (labs are ~0.8)
  const double kw = 4.0;        // wide circulation
  const double hw = kw / 2.0;
  // U-shaped circulation around a central hall.
  spec.hallways.push_back(corridor({0, 0}, {36, 0}, kw));
  spec.hallways.push_back(corridor({0, 0}, {0, 24}, kw));
  spec.hallways.push_back(corridor({36, 0}, {36, 24}, kw));

  int id = 200;
  // Sporadic large rooms.
  spec.rooms.push_back(office_on_x_corridor(++id, 8.0, 0, hw, -1, 12.0, 9.0));
  spec.rooms.push_back(office_on_x_corridor(++id, 26.0, 0, hw, -1, 10.0, 8.0));
  spec.rooms.push_back(office_on_y_corridor(++id, 10.0, 0.0, hw, -1, 8.0, 6.5));
  spec.rooms.push_back(office_on_y_corridor(++id, 20.0, 36.0, hw, +1, 9.0, 7.0));
  spec.rooms.push_back(office_on_y_corridor(++id, 8.0, 36.0, hw, +1, 6.0, 5.0));
  return spec;
}

FloorPlanSpec random_building(int n_rooms, common::Rng& rng) {
  if (n_rooms < 1) throw std::invalid_argument("n_rooms must be >= 1");
  FloorPlanSpec spec;
  spec.name = "Random";
  spec.feature_density = rng.uniform(0.4, 0.9);
  const double kw = 2.4;
  const double hw = kw / 2.0;
  const double spacing = 6.5;
  const double length = spacing * ((n_rooms + 1) / 2 + 1);
  spec.hallways.push_back(corridor({0, 0}, {length, 0}, kw));
  for (int i = 0; i < n_rooms; ++i) {
    const int side = (i % 2 == 0) ? +1 : -1;
    const double x = spacing * (i / 2 + 1) + rng.uniform(-1.0, 1.0);
    const double width = rng.uniform(3.6, 6.5);
    const double depth = rng.uniform(3.4, 6.0);
    spec.rooms.push_back(
        office_on_x_corridor(i + 1, x, 0, hw, side, width, depth));
  }
  return spec;
}

}  // namespace crowdmap::sim
