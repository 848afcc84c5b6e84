/**
 * @file
 * Trace-backed sources and replay buffers for the grid engine.
 *
 * runGrid opens every trace row through openTraceSource: an EMTC row
 * streams, each pass and each time-parallel chunk opening the
 * container at its own start record, while a raw EMTR row (loaded
 * whole at open) is packed once into an immutable
 * trace::RecordBuffer by buildTraceReplay. For EMTC containers
 * buildTraceReplay fans the decode out — the container's block index
 * gives O(1) random access (workload::PackedTraceSource::skipRecords
 * is pure cursor arithmetic), so independent tasks can decode
 * disjoint record spans of the same file into disjoint slots of a
 * preallocated buffer, bit-identically to the streaming build
 * (tests/test_timeparallel.cpp). No grid row takes that path any
 * more; the benchmark harness still times it.
 */

#ifndef EMISSARY_CORE_REPLAY_BUILD_HH
#define EMISSARY_CORE_REPLAY_BUILD_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/grid.hh"
#include "trace/record.hh"
#include "trace/replay.hh"

namespace emissary::core
{

/** True when @p path names an EMTC container (by extension). */
bool isPackedTracePath(const std::string &path);

/**
 * Fresh streaming source over @p workload's trace, positioned at its
 * configured skip offset plus @p extra_skip records — the grid
 * engine's uniform open for EMTC and raw EMTR files, and the
 * random-access primitive behind both the parallel decode and
 * time-parallel chunking (core::ChunkSourceFactory).
 */
std::unique_ptr<trace::TraceSource>
openTraceSource(const GridWorkload &workload,
                std::uint64_t extra_skip = 0);

/**
 * Pack the first @p records of @p workload's served stream into a
 * RecordBuffer, decoding EMTC containers in parallel across @p pool
 * (raw EMTR files, which have no block index, stream serially, and so
 * does every build with an @p observer, which sees the packed chunks
 * in stream order). The output is bit-identical to the serial
 * streaming constructor at any worker count: tasks own disjoint
 * record spans and the span partition depends only on (records,
 * worker count), never on scheduling order. Safe to call from inside
 * a pool job — the caller helps execute decode tasks instead of
 * blocking (ThreadPool::helpWhile).
 */
std::shared_ptr<const trace::RecordBuffer>
buildTraceReplay(const GridWorkload &workload, std::uint64_t records,
                 ThreadPool &pool,
                 const trace::RecordBuffer::ChunkObserver &observer = {});

} // namespace emissary::core

#endif // EMISSARY_CORE_REPLAY_BUILD_HH
