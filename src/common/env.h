/**
 * @file
 * The one parser for the size-valued `EFFACT_*` environment variables
 * (`EFFACT_THREADS`, `EFFACT_QUEUE_DEPTH`, `EFFACT_CACHE_BYTES`) and the
 * size-valued command-line flags of the service tools.
 */
#ifndef EFFACT_COMMON_ENV_H
#define EFFACT_COMMON_ENV_H

#include <cstddef>

namespace effact {

/** Parses `text` as an unsigned decimal size: one or more digits and
 *  nothing else (no sign, no blanks), within `size_t`. */
bool parseSize(const char *text, size_t *out);

/**
 * The value of the environment variable `name` when it parses as a
 * positive size; `fallback` when it is unset or `0` (0 = the default).
 * Any other value (a sign, a blank, a non-digit, an overflow) is
 * ignored with a warning and also yields `fallback`.
 */
size_t envSize(const char *name, size_t fallback);

} // namespace effact

#endif // EFFACT_COMMON_ENV_H
