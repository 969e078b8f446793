// mpx/base/cvar.hpp
//
// Environment switches ("CVARs"), MPICH-style: a compiled-in default
// overridable through an MPX_-prefixed environment variable. Only process-wide
// diagnostics and test hooks read these (collective algorithm and cache
// knobs, lock-rank checking, pool passthrough, the model checker);
// World tuning is WorldConfig's, set by whoever creates the World.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace mpx::base {

/// Read environment variable `name`; return `def` when unset or malformed.
std::int64_t cvar_int(const char* name, std::int64_t def);
bool cvar_bool(const char* name, bool def);
std::string cvar_string(const char* name, const std::string& def);

}  // namespace mpx::base
