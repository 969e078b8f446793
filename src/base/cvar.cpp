#include "mpx/base/cvar.hpp"

#include <cstdlib>
#include <string>

namespace mpx::base {
namespace {

// getenv is thread-safe as long as nothing calls setenv/putenv concurrently;
// mpx never mutates the environment, so the clang-tidy concurrency warning
// does not apply here.
const char* get_env(const char* name) {
  return std::getenv(name);  // NOLINT(concurrency-mt-unsafe)
}

}  // namespace

std::int64_t cvar_int(const char* name, std::int64_t def) {
  const char* v = get_env(name);
  if (v == nullptr || *v == '\0') return def;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 0);
  return (end != nullptr && *end == '\0') ? parsed : def;
}

bool cvar_bool(const char* name, bool def) {
  const char* v = get_env(name);
  if (v == nullptr || *v == '\0') return def;
  const std::string s(v);
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  return def;
}

std::string cvar_string(const char* name, const std::string& def) {
  const char* v = get_env(name);
  return (v != nullptr && *v != '\0') ? std::string(v) : def;
}

}  // namespace mpx::base
