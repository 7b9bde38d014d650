#include "common/env.h"

#include <cstdlib>
#include <limits>

#include "common/logging.h"

namespace effact {

bool
parseSize(const char *text, size_t *out)
{
    constexpr size_t kMax = std::numeric_limits<size_t>::max();
    size_t v = 0;
    const char *p = text;
    for (; *p >= '0' && *p <= '9'; ++p) {
        const size_t digit = size_t(*p - '0');
        if (v > (kMax - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    if (p == text || *p != '\0')
        return false;
    *out = v;
    return true;
}

size_t
envSize(const char *name, size_t fallback)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return fallback;
    size_t v = 0;
    if (parseSize(env, &v))
        return v == 0 ? fallback : v;
    warn("ignoring invalid %s='%s' (want an unsigned decimal integer; "
         "0 = default)",
         name, env);
    return fallback;
}

} // namespace effact
