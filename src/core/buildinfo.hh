/**
 * @file
 * Build provenance baked into the binaries: the git commit the tree
 * was built at, the CMake build type and the compiler. Every
 * machine-readable artifact (emissary.run.v1, emissary.sweep.v1,
 * emissary.stats.v1) carries this block so results can be keyed by
 * code version, as the service's content-addressed result cache keys
 * its cells by the SHA.
 *
 * The SHA is resolved at every build, not when CMake configures, so
 * a build tree reused across commits stamps the commit it was last
 * built at. It carries "-dirty" when tracked files differ from that
 * commit, and reads "unknown" outside a git checkout.
 */

#ifndef EMISSARY_CORE_BUILDINFO_HH
#define EMISSARY_CORE_BUILDINFO_HH

#include <string>

#include "stats/json.hh"

namespace emissary::core
{

struct BuildInfo
{
    std::string gitSha;    ///< Short commit hash[-dirty], or "unknown".
    std::string buildType; ///< CMAKE_BUILD_TYPE at configure.
    std::string compiler;  ///< Compiler id + version.
};

/** The provenance of this binary. */
const BuildInfo &buildInfo();

/** {"git_sha": ..., "build_type": ..., "compiler": ...}. */
stats::JsonValue buildProvenanceJson();

} // namespace emissary::core

#endif // EMISSARY_CORE_BUILDINFO_HH
