/**
 * @file
 * Machine configurations (paper Table 4).
 */

#ifndef EMISSARY_CORE_CONFIG_HH
#define EMISSARY_CORE_CONFIG_HH

#include <string>

#include "backend/backend.hh"
#include "cache/hierarchy.hh"
#include "frontend/frontend.hh"
#include "replacement/spec.hh"

namespace emissary::core
{

/** Everything needed to build one simulated machine. */
struct MachineConfig
{
    cache::Hierarchy::Config hierarchy;
    frontend::FrontEnd::Config frontend;
    backend::Backend::Config backend;
};

/** Knobs for deriving a machine from the Alderlake-like preset. */
struct MachineOptions
{
    /** The L2 replacement policy under study (paper notation). */
    std::string l2Policy = "TPLRU";

    /** L1I replacement policy (§3 ablation: run EMISSARY there). */
    std::string l1iPolicy = "TPLRU";

    /** §2 ablation: unselected instruction lines bypass the L2. */
    bool bypassLowPriorityInst = false;

    /** EMISSARY P(N) base: dual-tree TPLRU (default, §4.2) or true
     *  LRU (the §2 overview experiments). */
    bool emissaryTreePlru = true;

    bool fdip = true;             ///< Decoupled prefetching front-end.
    bool nextLinePrefetch = true; ///< NLP at the caches.
    bool idealL2Inst = false;     ///< §5.6 zero-miss-latency model.
    std::uint64_t seed = 0x5EEDULL;
};

/**
 * The Alderlake-like model of Table 4: 8-wide, ROB 512, L1I 32 kB /
 * L1D 64 kB 8-way 2-cycle, unified inclusive L2 1 MB 16-way
 * 12-cycle, shared exclusive L3 2 MB 16-way 32-cycle with DRRIP+SFL,
 * TAGE/ITTAGE, 16K-entry basic-block BTB, FTQ 24 x 192.
 */
MachineConfig alderlakeConfig(const MachineOptions &options);

} // namespace emissary::core

#endif // EMISSARY_CORE_CONFIG_HH
