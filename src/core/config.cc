#include "core/config.hh"

namespace emissary::core
{

MachineConfig
alderlakeConfig(const MachineOptions &options)
{
    MachineConfig m;

    // The fixed-policy levels never change across runs; parse their
    // notation once per process rather than once per machine.
    static const replacement::PolicySpec kTplru =
        replacement::PolicySpec::parse("TPLRU");
    static const replacement::PolicySpec kDrrip =
        replacement::PolicySpec::parse("DRRIP");

    replacement::PolicySpec l2_spec =
        replacement::PolicySpec::parse(options.l2Policy);
    l2_spec.emissaryTreePlru = options.emissaryTreePlru;

    m.hierarchy.l1i.name = "l1i";
    m.hierarchy.l1i.sizeBytes = 32 * 1024;
    m.hierarchy.l1i.ways = 8;
    m.hierarchy.l1i.hitLatency = 2;
    m.hierarchy.l1i.policy =
        replacement::PolicySpec::parse(options.l1iPolicy);
    m.hierarchy.l1i.seed = options.seed ^ 0x11;

    m.hierarchy.l1d.name = "l1d";
    m.hierarchy.l1d.sizeBytes = 64 * 1024;
    m.hierarchy.l1d.ways = 8;
    m.hierarchy.l1d.hitLatency = 2;
    m.hierarchy.l1d.policy = kTplru;
    m.hierarchy.l1d.seed = options.seed ^ 0x1D;

    m.hierarchy.l2.name = "l2";
    m.hierarchy.l2.sizeBytes = 1024 * 1024;
    m.hierarchy.l2.ways = 16;
    m.hierarchy.l2.hitLatency = 12;
    m.hierarchy.l2.policy = l2_spec;
    m.hierarchy.l2.seed = options.seed ^ 0x22;

    m.hierarchy.l3.name = "l3";
    m.hierarchy.l3.sizeBytes = 2 * 1024 * 1024;
    m.hierarchy.l3.ways = 16;
    m.hierarchy.l3.hitLatency = 32;
    m.hierarchy.l3.policy = kDrrip;
    m.hierarchy.l3.seed = options.seed ^ 0x33;

    m.hierarchy.dramLatency = 200;
    m.hierarchy.nextLinePrefetch = options.nextLinePrefetch;
    m.hierarchy.idealL2Inst = options.idealL2Inst;
    m.hierarchy.bypassLowPriorityInst = options.bypassLowPriorityInst;

    m.frontend.fdip = options.fdip;
    m.frontend.tage.seed = options.seed ^ 0x7A6E;
    m.frontend.ittage.seed = options.seed ^ 0x177A;

    return m;
}

} // namespace emissary::core
