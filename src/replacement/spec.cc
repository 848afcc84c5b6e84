#include "replacement/spec.hh"

#include <limits>
#include <stdexcept>

#include "util/strutil.hh"

namespace emissary::replacement
{

PolicySpec
PolicySpec::parse(const std::string &text)
{
    const std::string t = trim(text);
    PolicySpec spec;

    if (t == "LRU") {
        spec.family = PolicyFamily::InsertionLru;
        spec.selector = ModeSelector::parse("1");
        return spec;
    }
    if (t == "LIP") {
        spec.family = PolicyFamily::InsertionLru;
        spec.selector = ModeSelector::parse("0");
        return spec;
    }
    if (t == "BIP") {
        spec.family = PolicyFamily::InsertionLru;
        spec.selector = ModeSelector::parse("R(1/32)");
        return spec;
    }
    if (t == "TPLRU") {
        spec.family = PolicyFamily::TreePlru;
        return spec;
    }
    if (t == "EMISSARY") {
        // Convenience alias for the paper's headline configuration,
        // P(8):S&E&R(1/32) (Table 3 / Fig. 7 best variant).
        spec.family = PolicyFamily::EmissaryP;
        spec.protectN = 8;
        spec.selector = ModeSelector::parse("S&E&R(1/32)");
        return spec;
    }
    if (t == "SRRIP") {
        spec.family = PolicyFamily::Srrip;
        return spec;
    }
    if (t == "BRRIP") {
        spec.family = PolicyFamily::Brrip;
        return spec;
    }
    if (t == "DRRIP") {
        spec.family = PolicyFamily::Drrip;
        return spec;
    }
    if (t == "PDP") {
        spec.family = PolicyFamily::Pdp;
        return spec;
    }
    if (t == "DCLIP") {
        spec.family = PolicyFamily::Dclip;
        return spec;
    }

    const auto colon = t.find(':');
    if (colon == std::string::npos)
        throw std::invalid_argument("PolicySpec: cannot parse '" + t +
                                    "'");
    const std::string treatment = trim(t.substr(0, colon));
    const std::string selection = trim(t.substr(colon + 1));

    if (treatment == "M") {
        spec.family = PolicyFamily::InsertionLru;
        spec.selector = ModeSelector::parse(selection);
        return spec;
    }
    if (treatment.size() > 3 && treatment.substr(0, 2) == "P(" &&
        treatment.back() == ')') {
        spec.family = PolicyFamily::EmissaryP;
        const std::string n_text =
            treatment.substr(2, treatment.size() - 3);
        std::uint64_t n = 0;
        if (!parseDecimal(n_text, std::numeric_limits<unsigned>::max(),
                          n))
            throw std::invalid_argument(
                "PolicySpec: bad protect count '" + n_text + "'");
        spec.protectN = static_cast<unsigned>(n);
        spec.selector = ModeSelector::parse(selection);
        return spec;
    }
    throw std::invalid_argument("PolicySpec: unknown treatment '" +
                                treatment + "'");
}

std::string
PolicySpec::toString() const
{
    switch (family) {
      case PolicyFamily::InsertionLru:
        return "M:" + selector.toString();
      case PolicyFamily::TreePlru:
        return "TPLRU";
      case PolicyFamily::EmissaryP:
        return "P(" + std::to_string(protectN) + "):" +
               selector.toString();
      case PolicyFamily::Srrip:
        return "SRRIP";
      case PolicyFamily::Brrip:
        return "BRRIP";
      case PolicyFamily::Drrip:
        return "DRRIP";
      case PolicyFamily::Pdp:
        return "PDP";
      case PolicyFamily::Dclip:
        return "DCLIP";
    }
    return "?";
}

bool
PolicySpec::usesStarvation() const
{
    if (family != PolicyFamily::InsertionLru &&
        family != PolicyFamily::EmissaryP)
        return false;
    return selector.usesStarvation() || selector.usesIssueQueue();
}

bool
PolicySpec::computePriority(const MissContext &ctx, Rng &rng) const
{
    switch (family) {
      case PolicyFamily::InsertionLru:
        // Bimodal selection is instruction-scoped (§2): data lines
        // keep the conventional MRU insertion.
        if (!ctx.isInstruction)
            return true;
        return selector.select(ctx, rng);
      case PolicyFamily::EmissaryP:
        if (!ctx.isInstruction)
            return false;
        return selector.select(ctx, rng);
      default:
        return false;
    }
}

ReplacementPolicy::ReplacementPolicy(const PolicySpec &spec,
                                     unsigned num_sets, unsigned num_ways,
                                     std::uint64_t seed)
    : sets_(num_sets),
      ways_(num_ways),
      policy_(build(spec, num_sets, num_ways, seed))
{
}

ReplacementPolicy::Family
ReplacementPolicy::build(const PolicySpec &spec, unsigned num_sets,
                         unsigned num_ways, std::uint64_t seed)
{
    switch (spec.family) {
      case PolicyFamily::InsertionLru:
        return InsertionLru(num_sets, num_ways, spec.toString());
      case PolicyFamily::TreePlru:
        return TreePlru(num_sets, num_ways);
      case PolicyFamily::EmissaryP:
        return EmissaryPolicy(num_sets, num_ways, spec.protectN,
                              spec.emissaryTreePlru, spec.toString());
      case PolicyFamily::Srrip:
        return RripPolicy(num_sets, num_ways, RripMode::Static,
                          Rational(1, 32), seed);
      case PolicyFamily::Brrip:
        return RripPolicy(num_sets, num_ways, RripMode::Bimodal,
                          Rational(1, 32), seed);
      case PolicyFamily::Drrip:
        return RripPolicy(num_sets, num_ways, RripMode::Dynamic,
                          Rational(1, 32), seed);
      case PolicyFamily::Pdp:
        return PdpPolicy(num_sets, num_ways, spec.pdpDistance);
      case PolicyFamily::Dclip:
        return DclipPolicy(num_sets, num_ways);
    }
    throw std::logic_error("makePolicy: unreachable family");
}

std::unique_ptr<ReplacementPolicy>
makePolicy(const PolicySpec &spec, unsigned num_sets, unsigned num_ways,
           std::uint64_t seed)
{
    return std::make_unique<ReplacementPolicy>(spec, num_sets, num_ways,
                                               seed);
}

std::vector<std::string>
figure7PolicyNames()
{
    return {
        "M:0",          "DCLIP",          "SRRIP",
        "BRRIP",        "DRRIP",          "PDP",
        "M:R(1/32)",    "M:S&E",          "M:S&E&R(1/32)",
        "P(8):R(1/32)", "P(8):S&E",       "P(8):S&E&R(1/32)",
    };
}

} // namespace emissary::replacement
