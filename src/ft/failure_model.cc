#include "src/ft/failure_model.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/util/logging.hh"

namespace match::ft
{

const char *
failureKindName(FailureKind kind)
{
    switch (kind) {
      case FailureKind::Crash: return "crash";
      case FailureKind::Corrupt: return "corrupt";
    }
    return "unknown";
}

const char *
failureModelName(FailureModelKind kind)
{
    switch (kind) {
      case FailureModelKind::Single: return "single";
      case FailureModelKind::IndependentExp: return "independent";
      case FailureModelKind::Correlated: return "correlated";
      case FailureModelKind::Trace: return "trace";
    }
    return "unknown";
}

bool
parseFailureModel(const std::string &name, FailureModelKind &out)
{
    for (const FailureModelKind kind : allFailureModels) {
        if (name == failureModelName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

namespace
{

/** One exponential inter-arrival step: -ln(1-u)/rate, u in [0,1). */
double
expStep(util::Rng &rng, double rate)
{
    return -std::log(1.0 - rng.uniform()) / rate;
}

/** Crash, or Corrupt with probability `fraction` (one uniform draw —
 *  always taken, so the draw sequence is a pure function of the
 *  model's parameters, which all live in configKey()). */
FailureKind
drawKind(util::Rng &rng, double fraction)
{
    return rng.uniform() < fraction ? FailureKind::Corrupt
                                    : FailureKind::Crash;
}

/** Primary-failure iterations from an exponential arrival process over
 *  the open span (0, iterations-1), clamped into [1, iterations-1].
 *  meanFailures sets the rate, so the expected count matches it. */
std::vector<int>
arrivalIterations(const FailureModelConfig &config, int iterations,
                  util::Rng &rng)
{
    std::vector<int> at;
    const double span = static_cast<double>(iterations - 1);
    const double rate = std::max(config.meanFailures, 1e-9) / span;
    for (double t = expStep(rng, rate); t < span;
         t += expStep(rng, rate)) {
        at.push_back(std::min(iterations - 1,
                              1 + static_cast<int>(t)));
    }
    return at;
}

} // anonymous namespace

std::vector<FailureEvent>
generateSchedule(const FailureModelConfig &config, int nprocs,
                 int iterations, util::Rng &rng)
{
    MATCH_ASSERT(nprocs >= 1 && iterations >= 2,
                 "failure schedule needs >= 1 rank, >= 2 iterations");
    std::vector<FailureEvent> events;
    switch (config.kind) {
      case FailureModelKind::Single: {
        // The paper's Section V-B process, in the legacy draw order
        // (iteration first, then rank) — the bit-identity fixtures
        // depend on this exact sequence.
        FailureEvent event;
        event.iteration = 1 + static_cast<int>(
            rng.below(static_cast<std::uint64_t>(iterations - 1)));
        event.rank = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(nprocs)));
        event.kind = FailureKind::Crash;
        events.push_back(event);
        break;
      }
      case FailureModelKind::IndependentExp: {
        for (const int iteration :
             arrivalIterations(config, iterations, rng)) {
            FailureEvent event;
            event.iteration = iteration;
            event.rank = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(nprocs)));
            event.kind = drawKind(rng, config.corruptFraction);
            events.push_back(event);
        }
        break;
      }
      case FailureModelKind::Correlated: {
        const int per_node = std::max(1, config.ranksPerNode);
        const int per_rack =
            per_node * std::max(1, config.nodesPerRack);
        for (const int iteration :
             arrivalIterations(config, iterations, rng)) {
            const int primary = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(nprocs)));
            FailureEvent event;
            event.iteration = iteration;
            event.rank = primary;
            event.kind = drawKind(rng, config.corruptFraction);
            events.push_back(event);
            // A power/cooling/switch domain takes peers down with the
            // primary: every other rank in the domain crashes with
            // probability cascadeProb, and the domain itself escalates
            // from node to rack with the same probability.
            const bool rack_wide =
                rng.uniform() < config.cascadeProb;
            const int domain = rack_wide ? per_rack : per_node;
            const int base = (primary / domain) * domain;
            const int end = std::min(nprocs, base + domain);
            for (int peer = base; peer < end; ++peer) {
                if (peer == primary)
                    continue;
                if (rng.uniform() < config.cascadeProb) {
                    FailureEvent cascade;
                    cascade.iteration = iteration;
                    cascade.rank = peer;
                    cascade.kind = FailureKind::Crash;
                    events.push_back(cascade);
                }
            }
        }
        break;
      }
      case FailureModelKind::Trace: {
        events = config.trace;
        for (const FailureEvent &event : events) {
            if (event.rank < 0 || event.rank >= nprocs) {
                util::fatal("failure trace rank %d out of range for "
                            "%d processes",
                            event.rank, nprocs);
            }
        }
        break;
      }
    }
    // Fire order: stable by iteration, so cascades keep their
    // generation order within an iteration and replay is exact.
    std::stable_sort(events.begin(), events.end(),
                     [](const FailureEvent &a, const FailureEvent &b) {
                         return a.iteration < b.iteration;
                     });
    return events;
}

std::shared_ptr<simmpi::InjectionSchedule>
toInjectionSchedule(const std::vector<FailureEvent> &events)
{
    if (events.empty())
        return nullptr;
    auto schedule = std::make_shared<simmpi::InjectionSchedule>();
    schedule->events.reserve(events.size());
    for (const FailureEvent &event : events) {
        simmpi::InjectionEvent injection;
        injection.iteration = event.iteration;
        injection.rank = event.rank;
        injection.corrupt = event.kind == FailureKind::Corrupt;
        schedule->events.push_back(injection);
    }
    return schedule;
}

std::string
serializeTrace(const std::vector<FailureEvent> &events)
{
    std::string text =
        "# match failure trace: iteration rank kind\n";
    for (const FailureEvent &event : events) {
        char line[64];
        std::snprintf(line, sizeof(line), "%d %d %s\n",
                      event.iteration, event.rank,
                      failureKindName(event.kind));
        text += line;
    }
    return text;
}

std::vector<FailureEvent>
parseTrace(const std::string &text)
{
    std::vector<FailureEvent> events;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        if (line.find_first_not_of(" \t\r\v\f") == std::string::npos)
            continue; // blank or comment-only line
        std::istringstream fields(line);
        FailureEvent event;
        std::string kind;
        if (!(fields >> event.iteration >> event.rank >> kind)) {
            util::fatal("failure trace line %d: want "
                        "'iteration rank kind', got '%s'",
                        lineno, line.c_str());
        }
        std::string extra;
        if (fields >> extra) {
            util::fatal("failure trace line %d: trailing '%s'", lineno,
                        extra.c_str());
        }
        if (kind == failureKindName(FailureKind::Crash)) {
            event.kind = FailureKind::Crash;
        } else if (kind == failureKindName(FailureKind::Corrupt)) {
            event.kind = FailureKind::Corrupt;
        } else {
            util::fatal("failure trace line %d: unknown kind '%s' "
                        "(want crash or corrupt)",
                        lineno, kind.c_str());
        }
        if (event.iteration < 0 || event.rank < 0) {
            util::fatal("failure trace line %d: negative "
                        "iteration/rank", lineno);
        }
        events.push_back(event);
    }
    return events;
}

void
writeTraceFile(const std::string &path,
               const std::vector<FailureEvent> &events)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const std::string text = serializeTrace(events);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    if (!out)
        util::fatal("cannot write failure trace %s", path.c_str());
}

std::vector<FailureEvent>
readTraceFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        util::fatal("cannot read failure trace %s", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return parseTrace(text.str());
}

} // namespace match::ft
