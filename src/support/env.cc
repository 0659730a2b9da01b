#include "support/env.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "support/logging.hh"

extern char **environ;

namespace cherivoke {

namespace {

std::vector<EnvKnob> &
knobRegistry()
{
    static std::vector<EnvKnob> registry;
    return registry;
}

void
recordKnob(const char *name, std::string value, bool from_env)
{
    for (EnvKnob &knob : knobRegistry()) {
        if (knob.name == name) {
            knob.value = std::move(value);
            knob.fromEnv = from_env;
            return;
        }
    }
    knobRegistry().push_back(EnvKnob{name, std::move(value), from_env});
}

/** Classic Levenshtein distance, small-string sizes only. */
size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<size_t> row(b.size() + 1);
    for (size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
        size_t diag = row[0];
        row[0] = i;
        for (size_t j = 1; j <= b.size(); ++j) {
            const size_t up = row[j];
            const size_t subst =
                diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
            diag = up;
        }
    }
    return row[b.size()];
}

bool
isKnownKnob(const std::string &name)
{
    const std::vector<std::string> &known = knownEnvKnobs();
    return std::find(known.begin(), known.end(), name) != known.end();
}

/** Reject a query for a knob the registry does not list. */
void
requireKnownKnob(const char *name)
{
    if (!isKnownKnob(name))
        fatal("%s: not in the known-knob table", name);
}

} // namespace

const std::vector<std::string> &
knownEnvKnobs()
{
    // Every CHERIVOKE_* environment variable any binary in this repo
    // reads. A knob added anywhere must be added here, or
    // validateEnvironment() rejects it and envI64/envStr refuse to
    // read it — which is the point: the table is the single
    // registry a typo, in the environment or in the code, is
    // checked against.
    static const std::vector<std::string> known = {
        "CHERIVOKE_ALLOC_LIVE",
        "CHERIVOKE_BACKEND",
        "CHERIVOKE_BG_SWEEPER",
        "CHERIVOKE_FAULT_SUPERVISION_ONLY",
        "CHERIVOKE_MSGPASS_ENTRIES",
        "CHERIVOKE_MUTATOR_OPS",
        "CHERIVOKE_PAINT_SHARDS",
        "CHERIVOKE_POLICY",
        "CHERIVOKE_TENANT_AGG_ALLOCS",
        "CHERIVOKE_TEST_KNOB",
        "CHERIVOKE_THREADS",
    };
    return known;
}

void
validateEnvironment()
{
    for (char **env = environ; env && *env; ++env) {
        const std::string entry(*env);
        if (entry.rfind("CHERIVOKE_", 0) != 0)
            continue;
        const std::string name =
            entry.substr(0, std::min(entry.find('='), entry.size()));
        if (isKnownKnob(name))
            continue;
        const std::string *nearest = nullptr;
        size_t best = ~size_t{0};
        for (const std::string &knob : knownEnvKnobs()) {
            const size_t d = editDistance(name, knob);
            if (d < best) {
                best = d;
                nearest = &knob;
            }
        }
        fatal("%s: unknown CHERIVOKE_* knob (did you mean %s?)",
              name.c_str(), nearest->c_str());
    }
}

const std::vector<EnvKnob> &
envKnobs()
{
    return knobRegistry();
}

void
printEnvKnobs(std::FILE *out)
{
    if (envKnobs().empty()) {
        std::fprintf(out, "  (none queried)\n");
        return;
    }
    for (const EnvKnob &knob : envKnobs()) {
        std::fprintf(out, "  %-26s = %s (%s)\n", knob.name.c_str(),
                     knob.value.empty() ? "(unset)"
                                        : knob.value.c_str(),
                     knob.fromEnv ? "env" : "default");
    }
}

bool
parseI64(const std::string &text, int64_t &out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    out = static_cast<int64_t>(v);
    return true;
}

void
announceEnvKnobs()
{
    std::fprintf(stderr, "Effective CHERIVOKE_* knobs:\n");
    printEnvKnobs(stderr);
    std::fprintf(stderr, "\n");
}

int64_t
envI64(const char *name, int64_t fallback, int64_t min)
{
    requireKnownKnob(name);
    const char *text = std::getenv(name);
    if (!text) {
        recordKnob(name, std::to_string(fallback), false);
        return fallback;
    }
    int64_t value = 0;
    if (!parseI64(text, value))
        fatal("%s: expected an integer, got '%s'", name, text);
    if (value < min)
        fatal("%s: %lld is below the minimum %lld", name,
              static_cast<long long>(value),
              static_cast<long long>(min));
    recordKnob(name, std::to_string(value), true);
    return value;
}

std::string
envStr(const char *name, const std::string &fallback)
{
    requireKnownKnob(name);
    const char *text = std::getenv(name);
    recordKnob(name, text ? text : fallback, text != nullptr);
    return text ? text : fallback;
}

} // namespace cherivoke
