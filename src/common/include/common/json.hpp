// Minimal deterministic JSON writing helpers.
//
// One shared writer for every machine-readable export in the repo
// (metrics snapshots, engine profile traces): locale-independent, shortest
// round-trip number formatting via std::to_chars, so exports are
// byte-identical for identical values regardless of thread count or
// global stream state.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace d2dhb::json {

/// Escapes a string for embedding inside JSON double quotes.
std::string escape(std::string_view s);

/// Shortest round-trip representation of a double ("1", "0.25",
/// "1e+30"). Non-finite values serialize as 0 — JSON has no inf/nan and
/// the simulation never legitimately produces them.
std::string number(double v);

std::string number(std::uint64_t v);
std::string number(std::int64_t v);

}  // namespace d2dhb::json
