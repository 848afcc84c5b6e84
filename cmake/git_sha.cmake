# Writes the commit the source tree is at, as the EMISSARY_GIT_SHA
# macro, into the header that src/core/buildinfo.cc includes
# (core::buildInfo). src/core/CMakeLists.txt runs it at every build:
#
#   cmake -DSOURCE_DIR=<tree> -DOUTPUT=<header> -P cmake/git_sha.cmake
#
# The value is HEAD's 12-hex abbreviation, with "-dirty" appended when
# tracked files differ from HEAD, or "unknown" outside a git checkout.
# The header is rewritten only when its text changes, so a build at
# an unchanged commit recompiles nothing.

execute_process(
    COMMAND git -C "${SOURCE_DIR}" rev-parse --short=12 HEAD
    OUTPUT_VARIABLE sha
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR sha STREQUAL "")
    set(sha "unknown")
else()
    # --no-optional-locks: a build must not take the index lock that
    # a concurrent git command in the same checkout needs.
    execute_process(
        COMMAND git -C "${SOURCE_DIR}" --no-optional-locks status
                --porcelain --untracked-files=no
        OUTPUT_VARIABLE changes
        ERROR_QUIET
        RESULT_VARIABLE rc)
    if(rc EQUAL 0 AND NOT changes STREQUAL "")
        string(APPEND sha "-dirty")
    endif()
endif()

set(text "#define EMISSARY_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS "${OUTPUT}")
    file(READ "${OUTPUT}" old)
endif()
if(NOT old STREQUAL text)
    file(WRITE "${OUTPUT}" "${text}")
endif()
