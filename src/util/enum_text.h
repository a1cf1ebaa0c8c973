// enum_text.h — textual round-tripping for the library's enums.
//
// Every user-facing enum provides `const char* to_string(Enum)` next to its
// definition plus an explicit specialization of `from_string<Enum>` declared
// here, so configs and CLI flags round-trip through text:
//
//   MoveKind kind = from_string<MoveKind>("swap-rotate");
//   assert(from_string<MoveKind>(to_string(kind)) == kind);
//
// Stream operators (`operator<<` / `operator>>`) are layered on the same
// pair, in the style of poplibs' Operation: `>>` reads one whitespace-
// delimited token and parses it, throwing std::invalid_argument (with the
// list of valid spellings) on unknown input.
#pragma once

#include <string_view>

namespace dmfb {

/// Parses an enum value from its `to_string` spelling. Only the explicit
/// specializations (one per enum) are defined; there is no generic
/// implementation. Throws std::invalid_argument on unknown text.
template <typename Enum>
Enum from_string(std::string_view text);

}  // namespace dmfb
