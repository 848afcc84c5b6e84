#include "core/buildinfo.hh"

// The build generates git_sha.hh (cmake/git_sha.cmake) and injects the
// other definitions per-source (src/core/CMakeLists.txt); the
// fallbacks keep the file compilable standalone (IDE indexers,
// out-of-CMake builds).
#if __has_include("git_sha.hh")
#include "git_sha.hh"
#endif
#ifndef EMISSARY_GIT_SHA
#define EMISSARY_GIT_SHA "unknown"
#endif
#ifndef EMISSARY_BUILD_TYPE
#define EMISSARY_BUILD_TYPE "unknown"
#endif
#ifndef EMISSARY_COMPILER
#define EMISSARY_COMPILER "unknown"
#endif

namespace emissary::core
{

const BuildInfo &
buildInfo()
{
    static const BuildInfo info{EMISSARY_GIT_SHA, EMISSARY_BUILD_TYPE,
                                EMISSARY_COMPILER};
    return info;
}

stats::JsonValue
buildProvenanceJson()
{
    const BuildInfo &info = buildInfo();
    stats::JsonValue doc = stats::JsonValue::object();
    doc.set("git_sha", stats::JsonValue(info.gitSha));
    doc.set("build_type", stats::JsonValue(info.buildType));
    doc.set("compiler", stats::JsonValue(info.compiler));
    return doc;
}

} // namespace emissary::core
